package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// post sends one request document and reads the whole response.
func post(ctx context.Context, client *http.Client, base string, r request) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path(), bytes.NewReader(r.Doc.body()))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// closedLoop runs clients that each send their next request only after the
// previous one completed, drawing from seq in order, until the deadline.
// A 200 is a success, a 429 a refusal, anything else a failure. A 200 with
// another body than screening recorded voids the run, so it stops every
// client at once.
type closedLoop struct {
	seq     []request
	clients int
	until   time.Time
	client  *http.Client
	base    string // the daemon's URL
}

// loopResult is what a closed loop measured.
type loopResult struct {
	LatMS    []float64 // one per attempted request; +Inf for a failed one
	Tally    tally
	Window   time.Duration // first send to last completion
	FirstErr string        // why the first failed request failed
}

func (l closedLoop) run(ctx context.Context) loopResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  loopResult
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var t tally
			var firstErr string
			for ctx.Err() == nil && time.Now().Before(l.until) {
				r := l.seq[int(next.Add(1)-1)%len(l.seq)]
				t0 := time.Now()
				code, body, err := post(ctx, l.client, l.base, r)
				var wrong error
				if err == nil && code == http.StatusOK {
					wrong = checkBody(r, body)
				}
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				if ctx.Err() != nil {
					break // canceled mid-request: not a measurement
				}
				t.Attempted++
				switch {
				case err == nil && code == http.StatusOK:
					t.Succeeded++
					lat = append(lat, ms)
					if wrong != nil {
						t.Mismatches = append(t.Mismatches, wrong.Error())
						cancel()
					}
				case err == nil && code == http.StatusTooManyRequests:
					t.Refused++
					lat = append(lat, math.Inf(1))
				default:
					t.Failed++
					lat = append(lat, math.Inf(1))
					if firstErr == "" {
						if err == nil {
							err = fmt.Errorf("%s: status %d: %s", r.label(), code, bytes.TrimSpace(body))
						}
						firstErr = err.Error()
					}
				}
			}
			mu.Lock()
			out.LatMS = append(out.LatMS, lat...)
			out.Tally.add(t)
			if out.FirstErr == "" {
				out.FirstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.Window = time.Since(start)
	return out
}

// newClient is the load generator's HTTP client: keep-alive connections,
// one per closed-loop client.
func newClient(clients int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients + 1,
			DisableCompression:  true,
		},
	}
}

// endToEnd measures a workload with tracing off: set-up time, then a
// closed loop of run-seconds against the real binaries.
func endToEnd(ctx context.Context, e env, w workload, seq []request) (*outcome, error) {
	client := newClient(e.clients)
	defer client.CloseIdleConnections()

	// Set-up: spawn to healthy, plus the workload's warm phase, several
	// times; the last daemon stays up for the measurement.
	setups := 15
	if w.WarmUp {
		setups = 3
	}
	var setupS []float64
	var d *daemon
	for i := 0; i < setups; i++ {
		spill := filepath.Join(e.tmp, fmt.Sprintf("spill%d", i))
		t0 := time.Now()
		var err error
		d, err = startDaemon(ctx, e.bin, w.daemonArgs(spill), filepath.Join(e.tmp, "scaltoold.log"), client)
		if err != nil {
			return nil, err
		}
		if w.WarmUp {
			if err := warmUp(ctx, client, d.url(), e.docs, e.byID); err != nil {
				d.stop()
				return nil, err
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			d.stop()
		}
	}
	defer d.stop()

	pid := d.cmd.Process.Pid
	cpu0, err := procCPUms(pid)
	if err != nil {
		return nil, err
	}
	lr := closedLoop{
		seq: seq, clients: e.clients, until: time.Now().Add(e.seconds),
		client: client, base: d.url(),
	}.run(ctx)
	cpu1, err := procCPUms(pid)
	if err != nil {
		return nil, err
	}
	rss, err := procHWMmb(pid)
	if err != nil {
		return nil, err
	}
	o := e2eOutcome(e, lr, cpu1-cpu0, rss, median(setupS))
	if o.Info.RunCache, err = cacheCounts(ctx, client, d.url()); err != nil {
		return nil, err
	}
	return o, nil
}

// warmUp requests every warm document once, checking each body.
func warmUp(ctx context.Context, client *http.Client, base string, ds *docSet, byID map[string]*doc) error {
	for _, id := range ds.Warm {
		r := request{Doc: byID[id]}
		code, body, err := post(ctx, client, base, r)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d", r.label(), code)
		}
		if err := checkBody(r, body); err != nil {
			return err
		}
	}
	return nil
}

// e2eOutcome turns a closed loop's measurements into the end-to-end
// metrics.
func e2eOutcome(e env, lr loopResult, cpuMS, rssMB, setupS float64) *outcome {
	o := &outcome{Info: e.info(), Tally: lr.Tally}
	o.Info.WindowS, o.Info.FirstError = lr.Window.Seconds(), lr.FirstErr
	lat, err := summarize(lr.LatMS)
	o.Info.Samples, o.Info.Beyond90 = lat.Samples, lat.Beyond90
	if err != nil {
		o.Errs = append(o.Errs, err)
	}
	done := float64(lr.Tally.Succeeded)
	o.Metrics = map[string]metric{
		"latency_p50_ms": {lat.P50, "ms"},
		"latency_p90_ms": {lat.P90, "ms"},
		"throughput_rps": {done / lr.Window.Seconds(), "1/s"},
		"success_ratio":  {lr.Tally.successRatio(), "ratio"},
		"cpu_ms_per_req": {cpuMS / done, "ms"},
		"rss_peak_mb":    {rssMB, "MiB"},
		"setup_s":        {setupS, "s"},
	}
	return o
}
