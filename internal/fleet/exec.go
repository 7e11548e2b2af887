package fleet

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
)

// ExecReplica supervises a real scaltoold child process — the production
// shape of a slot, where Kill really is SIGKILL. Readiness is discovered
// from the daemon's own startup line ("scaltoold: listening on ADDR"),
// which is printed only after the listener is bound, so the URL handed to
// the router is connectable by construction.

// ExecConfig describes how to launch a replica process.
type ExecConfig struct {
	// Path is the scaltoold binary.
	Path string
	// Args are the daemon's flags. Pass "-addr", "127.0.0.1:0" (or leave
	// the default) so each instance binds its own ephemeral port.
	Args []string
	// Stderr receives the child's stderr (nil = discarded).
	Stderr io.Writer
}

// ExecReplica is a supervised scaltoold OS process.
type ExecReplica struct {
	url  string
	cmd  *exec.Cmd
	done chan struct{}
}

// StartExec launches a scaltoold child and waits until it announces its
// listen address. ctx bounds only that wait: if it ends first, the child is
// killed and reaped before StartExec returns. A child that did announce
// outlives ctx.
func StartExec(ctx context.Context, cfg ExecConfig) (*ExecReplica, error) {
	cmd := exec.Command(cfg.Path, cfg.Args...)
	cmd.Stderr = lockWriter(cfg.Stderr)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}

	r := &ExecReplica{cmd: cmd, done: make(chan struct{})}
	// The reaper goroutine owns Wait; everything else watches done.
	exited := make(chan struct{})
	go func() {
		defer close(r.done)
		defer close(exited)
		_ = cmd.Wait()
	}()

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "scaltoold: listening on "); ok {
				addrCh <- strings.TrimSpace(rest)
				break
			}
		}
		// Keep draining so the child never blocks on a full stdout pipe.
		_, _ = io.Copy(io.Discard, stdout)
	}()

	select {
	case addr := <-addrCh:
		r.url = "http://" + normalizeHostPort(addr)
		return r, nil
	case <-exited:
		return nil, fmt.Errorf("fleet: %s exited before announcing its address", cfg.Path)
	case <-ctx.Done():
		_ = cmd.Process.Kill()
		<-exited
		return nil, fmt.Errorf("fleet: %s did not announce its address: %w", cfg.Path, context.Cause(ctx))
	}
}

// lockWriter serializes writes to a shared child-stderr sink. exec.Cmd
// copies a non-*os.File stderr in a per-child goroutine, so a fleet of
// children funneling into one buffer would race; a real file is passed
// through untouched (the kernel handles fd sharing). The mutex is package
// level because the same underlying writer typically backs every child.
var childStderrMu sync.Mutex

func lockWriter(w io.Writer) io.Writer {
	if w == nil {
		return nil
	}
	if f, ok := w.(*os.File); ok {
		return f
	}
	return &lockedWriter{w: w}
}

type lockedWriter struct{ w io.Writer }

func (lw *lockedWriter) Write(p []byte) (int, error) {
	childStderrMu.Lock()
	defer childStderrMu.Unlock()
	return lw.w.Write(p)
}

// normalizeHostPort rewrites wildcard listen addresses (":8080", "[::]:..")
// to a dialable localhost form.
func normalizeHostPort(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// URL returns the child's base URL.
func (r *ExecReplica) URL() string { return r.url }

// Done is closed once the child has exited.
func (r *ExecReplica) Done() <-chan struct{} { return r.done }

// Kill sends SIGKILL.
func (r *ExecReplica) Kill() { _ = r.cmd.Process.Kill() }

// Shutdown sends SIGTERM (the daemon drains and exits on it) and waits for
// the child to go away or ctx to expire, in which case it is killed.
func (r *ExecReplica) Shutdown(ctx context.Context) error {
	if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		if err == os.ErrProcessDone {
			return nil
		}
		return err
	}
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		_ = r.cmd.Process.Kill()
		return fmt.Errorf("fleet: shutdown: %w", ctx.Err())
	}
}
