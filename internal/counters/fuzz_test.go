package counters_test

import (
	"bytes"
	"testing"

	"scaltool/internal/counters"
	"scaltool/internal/health"
)

// FuzzReadJSON checks the file-boundary contract: ReadJSON only decodes,
// and health.Sanitize is the one plausibility check. The parser never
// panics; anything it accepts passes through Sanitize without panicking
// and round-trips; and any report Sanitize does not quarantine — repaired
// or not — passes Validate, the simulator's own strict check.
func FuzzReadJSON(f *testing.F) {
	var buf bytes.Buffer
	r := &counters.RunReport{
		Machine: "m", App: "a", Procs: 1, DataBytes: 64,
		PerProc: make([]counters.Set, 1), WallCycles: 10,
	}
	r.PerProc[0].Add(counters.Cycles, 10)
	r.PerProc[0].Add(counters.GradInstr, 8)
	if err := r.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"procs":-1}`))
	f.Add([]byte(`not json at all`))
	// Truncated mid-write, as a crashed measurement node leaves it.
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add(buf.Bytes()[:1])
	// A single byte corrupted to a value never valid in JSON.
	corrupt := bytes.Replace(buf.Bytes(), []byte("procs"), []byte("pro\xffs"), 1)
	f.Add(corrupt)
	// Duplicated fields: the decoder keeps the last value; the report must
	// still parse-or-error, never panic.
	f.Add([]byte(`{"procs":1,"procs":2,"data_bytes":64,"data_bytes":0,"per_proc":[[10,8,0,0,0,0,0,0]],"per_proc":[[10,8,0,0,0,0,0,0],[10,8,0,0,0,0,0,0]],"wall_cycles":10}`))
	// A wrapped 32-bit counter: cycles far below wall_cycles by a whole
	// number of 2^32 wraps. Structurally valid — the parser accepts it and
	// health.Sanitize (not this package) is responsible for the repair.
	wrapped := &counters.RunReport{
		Machine: "m", App: "a", Procs: 1, DataBytes: 64,
		PerProc: make([]counters.Set, 1), WallCycles: (uint64(3) << 32) + 12345,
	}
	wrapped.PerProc[0].Add(counters.Cycles, 12345)
	wrapped.PerProc[0].Add(counters.GradInstr, 8)
	var wbuf bytes.Buffer
	if err := wrapped.WriteJSON(&wbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(wbuf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := counters.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, minCPI := range []float64{0, 0.25} {
			clean, findings := health.Sanitize("fuzz", rep, minCPI)
			if health.ShouldQuarantine(findings) {
				continue
			}
			if err := clean.Validate(); err != nil {
				t.Fatalf("report Sanitize kept (findings %v) fails validation: %v", findings, err)
			}
		}
		var out bytes.Buffer
		if err := rep.WriteJSON(&out); err != nil {
			t.Fatalf("accepted report cannot serialize: %v", err)
		}
		rep2, err := counters.ReadJSON(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if rep2.Procs != rep.Procs || len(rep2.PerProc) != len(rep.PerProc) || rep2.Total() != rep.Total() {
			t.Fatal("round trip changed the report")
		}
	})
}
