package sim

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"scaltool/internal/machine"
)

// cancelProg builds a small multi-region program whose every region does
// real work on every processor, so a bailed stream is visible in the
// counters.
func cancelProg(t *testing.T, cfg machine.Config, procs, regions int) *Program {
	t.Helper()
	prog, err := NewProgram("cancel", procs, 1<<14, cfg.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	arr := prog.MustAlloc("a", 1<<14)
	for r := 0; r < regions; r++ {
		reg := prog.AddRegion("work")
		for p := 0; p < procs; p++ {
			st := reg.Proc(p)
			st.Compute(500)
			st.Read(arr.Base+uint64(p)*2048, 64, 32, 1)
		}
	}
	return prog
}

// cancelAfter is a context that reports itself canceled from its
// (limit+1)th Err() call on. The engine polls Err() once at every region
// boundary and once as each processor's stream starts inside a region, so
// the limit places the cancellation at an exact point of the run.
type cancelAfter struct {
	context.Context
	limit int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestRunContextCancelInsideFinalRegion is the regression test for the
// cancellation-corruption bug: a context canceled after the last
// region-boundary check — i.e. inside the final region's parallel phase —
// used to let the worker goroutines bail with zero-value procOuts while
// RunContext still assembled and returned a normal-looking Result from the
// incomplete streams. It must return (nil, ctx.Err()-wrapping error).
func TestRunContextCancelInsideFinalRegion(t *testing.T) {
	cfg := machine.TinyTest()
	const regions, procs = 3, 4
	prog := cancelProg(t, cfg, procs, regions)

	// Let every earlier region run (a boundary check plus one check per
	// stream each) and the final region's boundary check pass: the next
	// check, as the final region's first stream starts, sees the cancel.
	ctx := &cancelAfter{Context: context.Background(), limit: (regions-1)*(1+procs) + 1}
	res, err := RunContext(ctx, cfg, prog)
	if err == nil {
		t.Fatalf("canceled run returned a Result (wall=%v) instead of an error", res.WallCycles)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if res != nil {
		t.Fatalf("canceled run returned non-nil *Result alongside the error")
	}
	if !strings.Contains(err.Error(), "inside region 3 of 3") {
		t.Fatalf("err = %v, want the cancellation inside the final region", err)
	}
}

// TestRunContextCancelChaos cancels a run at every cancellation check in
// turn — every region boundary and every stream start inside every region —
// and asserts the contract: either the run completes with a Result
// identical to the uncanceled run, or it returns (nil, error wrapping
// context.Canceled). Nothing in between.
func TestRunContextCancelChaos(t *testing.T) {
	cfg := machine.TinyTest()
	const regions, procs = 5, 4
	build := func() *Program { return cancelProg(t, cfg, procs, regions) }

	want, err := Run(cfg, build())
	if err != nil {
		t.Fatal(err)
	}

	// A full run makes exactly regions·(1+procs) checks: only a limit that
	// covers all of them lets it finish.
	checks := regions * (1 + procs)
	for at := 0; at <= checks; at++ {
		ctx := &cancelAfter{Context: context.Background(), limit: int64(at)}
		res, err := RunContext(ctx, cfg, build())
		if (err == nil) != (at == checks) {
			t.Errorf("cancel at check %d of %d: err = %v", at, checks, err)
		}
		switch {
		case err != nil:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancel at check %d: err = %v, want context.Canceled", at, err)
			}
			if res != nil {
				t.Errorf("cancel at check %d: non-nil Result alongside error", at)
			}
		default:
			// The run won the race: its Result must be the full, correct one.
			if res.WallCycles != want.WallCycles {
				t.Errorf("cancel at check %d: completed run wall=%v, want %v (partial result leaked)",
					at, res.WallCycles, want.WallCycles)
			}
			if got, exp := res.Report.Total(), want.Report.Total(); got != exp {
				t.Errorf("cancel at check %d: completed run counters differ from uncanceled run", at)
			}
		}
	}
}

// TestRunContextPreCanceled checks the boundary path still rejects runs
// whose context is dead before the first region.
func TestRunContextPreCanceled(t *testing.T) {
	cfg := machine.TinyTest()
	prog := cancelProg(t, cfg, 2, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := RunContext(ctx, cfg, prog); err == nil || res != nil {
		t.Fatalf("pre-canceled run: res=%v err=%v, want nil+error", res, err)
	}
}
