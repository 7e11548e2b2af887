package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTicks = 100

// daemon is a running scaltoold.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once the daemon's stdout hits EOF
	log     *os.File
}

// startDaemon spawns scaltoold on a free loopback port and returns once it
// answers /v1/healthz. Its log goes to logPath.
func startDaemon(ctx context.Context, bin string, args []string, logPath string, client *http.Client) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(bin, "scaltoold"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		_ = logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, fmt.Errorf("starting scaltoold: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{}), log: logf}
	rd := bufio.NewReader(out)
	line, err := rd.ReadString('\n')
	const prefix = "scaltoold: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		_ = cmd.Process.Kill()
		_, _ = io.Copy(io.Discard, rd)
		_ = cmd.Wait()
		_ = logf.Close()
		return nil, fmt.Errorf("scaltoold did not report its address (read %q, %v); see %s", line, err, logPath)
	}
	d.addr = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	go func() {
		_, _ = io.Copy(io.Discard, rd)
		close(d.drained)
	}()
	if err := d.waitHealthy(ctx, client); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// url is the daemon's base URL.
func (d *daemon) url() string { return "http://" + d.addr }

// waitHealthy polls /v1/healthz until it answers 200.
func (d *daemon) waitHealthy(ctx context.Context, client *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url()+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("scaltoold at %s never became healthy: %v", d.addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, killing it if the drain hangs, and
// waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait()
	_ = d.log.Close() // a diagnostic log
}

// procCPUms is a live process's user+system CPU time in milliseconds.
func procCPUms(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; the fields after it do not.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return (ut + st) * 1000 / clockTicks, nil
}

// procHWMmb is a live process's peak resident set (VmHWM) in MiB.
func procHWMmb(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
