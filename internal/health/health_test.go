package health

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"

	"scaltool/internal/counters"
)

// goodReport builds a report that satisfies every invariant.
func goodReport(procs int) *counters.RunReport {
	r := &counters.RunReport{
		Machine: "m", App: "a", Procs: procs, DataBytes: 1 << 20,
		PerProc: make([]counters.Set, procs), WallCycles: 1_000_000,
		Barriers: 10,
	}
	for p := range r.PerProc {
		s := &r.PerProc[p]
		s.Add(counters.Cycles, 1_000_000)
		s.Add(counters.GradInstr, 800_000)
		s.Add(counters.GradLoads, 200_000)
		s.Add(counters.GradStores, 50_000)
		s.Add(counters.L1DMisses, 20_000)
		s.Add(counters.L2Misses, 5_000)
	}
	return r
}

func findChecks(fs []Finding, check string, sev Severity) int {
	n := 0
	for _, f := range fs {
		if f.Check == check && f.Severity == sev {
			n++
		}
	}
	return n
}

func TestSanitizeCleanReportUntouched(t *testing.T) {
	rep := goodReport(2)
	out, fs := Sanitize("r", rep, 0.3)
	if len(fs) != 0 {
		t.Fatalf("clean report produced findings: %v", fs)
	}
	if ShouldQuarantine(fs) {
		t.Fatal("clean report quarantined")
	}
	if out.Total() != rep.Total() {
		t.Fatal("clean report was modified")
	}
}

func TestSanitizeUnwrapsWrappedCycles(t *testing.T) {
	rep := goodReport(2)
	wall := uint64(3)<<32 + 12345
	rep.WallCycles = wall
	for p := range rep.PerProc {
		rep.PerProc[p][counters.Cycles] = wall
	}
	rep.PerProc[1][counters.Cycles] = wall % (1 << 32) // wrapped 3 times
	out, fs := Sanitize("r", rep, 0)
	if got := out.PerProc[1][counters.Cycles]; got != wall {
		t.Fatalf("cycles = %d after repair, want %d", got, wall)
	}
	if findChecks(fs, "wraparound", Repair) != 1 {
		t.Fatalf("findings = %v, want one wraparound repair", fs)
	}
	if ShouldQuarantine(fs) {
		t.Fatal("repairable wrap quarantined")
	}
	// The input must not have been touched.
	if rep.PerProc[1][counters.Cycles] == wall {
		t.Fatal("Sanitize mutated its input")
	}
}

func TestSanitizeClampsNoiseSkews(t *testing.T) {
	rep := goodReport(1)
	s := &rep.PerProc[0]
	s[counters.L2Misses] = s[counters.L1DMisses] + s[counters.L1DMisses]/20 // 5% over: noise
	out, fs := Sanitize("r", rep, 0)
	if got, want := out.PerProc[0][counters.L2Misses], out.PerProc[0][counters.L1DMisses]; got != want {
		t.Fatalf("l2 misses %d not clamped to l1 misses %d", got, want)
	}
	if findChecks(fs, "l2-misses", Repair) != 1 || ShouldQuarantine(fs) {
		t.Fatalf("findings = %v", fs)
	}

	rep = goodReport(1)
	s = &rep.PerProc[0]
	ops := s.MemOps()
	s[counters.L1DMisses] = ops + ops/30 // just over the accesses: noise
	out, fs = Sanitize("r", rep, 0)
	if out.PerProc[0][counters.L1DMisses] != ops {
		t.Fatalf("l1 misses not clamped to %d", ops)
	}
	if findChecks(fs, "l1-misses", Repair) != 1 || ShouldQuarantine(fs) {
		t.Fatalf("findings = %v", fs)
	}
}

func TestSanitizeQuarantinesImplausibleReports(t *testing.T) {
	cases := []struct {
		name  string
		check string
		mod   func(r *counters.RunReport)
	}{
		{"zero instructions", "instructions", func(r *counters.RunReport) {
			r.PerProc[0][counters.GradInstr] = 0
		}},
		{"l2 far above l1", "l2-misses", func(r *counters.RunReport) {
			r.PerProc[0][counters.L2Misses] = 10 * r.PerProc[0][counters.L1DMisses]
		}},
		{"l1 far above accesses", "l1-misses", func(r *counters.RunReport) {
			r.PerProc[0][counters.L1DMisses] = 10 * r.PerProc[0].MemOps()
		}},
		{"impossible CPI", "min-cpi", func(r *counters.RunReport) {
			r.WallCycles = 0 // disable the wrap repair; the cycles are just wrong
			r.PerProc[0][counters.Cycles] = 1000
		}},
		{"shape mismatch", "shape", func(r *counters.RunReport) { r.Procs = 5 }},
		{"zero data", "shape", func(r *counters.RunReport) { r.DataBytes = 0 }},
		{"counter out of range", "range", func(r *counters.RunReport) {
			r.PerProc[0][counters.L2Misses] = counters.MaxExact + 1
		}},
	}
	for _, tc := range cases {
		rep := goodReport(2)
		tc.mod(rep)
		_, fs := Sanitize("r", rep, 0.3)
		if !ShouldQuarantine(fs) {
			t.Errorf("%s: not quarantined (findings %v)", tc.name, fs)
			continue
		}
		if findChecks(fs, tc.check, Quarantine) == 0 {
			t.Errorf("%s: no %q quarantine finding in %v", tc.name, tc.check, fs)
		}
	}
}

func TestCheckStructure(t *testing.T) {
	fs := CheckStructure([]int{1, 2, 4, 8}, []uint64{1 << 14, 1 << 15, 1 << 16, 1 << 17})
	if len(fs) != 0 {
		t.Fatalf("clean Table 3 structure flagged: %v", fs)
	}
	fs = CheckStructure([]int{2, 4, 16}, []uint64{1 << 14, 1 << 14, 1 << 15})
	var checks []string
	for _, f := range fs {
		if f.Severity != Info {
			t.Errorf("structure finding %v must be info-severity", f)
		}
		checks = append(checks, f.Check+":"+f.Detail)
	}
	joined := strings.Join(checks, "\n")
	for _, want := range []string{"uniprocessor point", "doubling chain", "duplicate", "span only"} {
		if !strings.Contains(joined, want) {
			t.Errorf("structure findings missing %q:\n%s", want, joined)
		}
	}
}

func TestReportLifecycleAndJSON(t *testing.T) {
	r := NewReport()
	if !r.Clean() {
		t.Fatal("empty report not clean")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.Add(Finding{Run: "b", Check: "c", Severity: Repair, Detail: strconv.Itoa(7 - i)})
		}(i)
	}
	wg.Wait()
	r.AddQuarantine("z")
	r.AddQuarantine("a")
	r.AddFailure("q", errors.New("dead"))
	r.Finalize()

	if r.Clean() {
		t.Fatal("report with repairs/quarantines reported clean")
	}
	if _, repairs, _ := r.Counts(); repairs != 8 {
		t.Fatalf("repairs = %d", repairs)
	}
	if got := r.DroppedRuns(); len(got) != 3 || got[0] != "a" || got[1] != "q" || got[2] != "z" {
		t.Fatalf("DroppedRuns = %v", got)
	}
	for i := 1; i < len(r.Findings); i++ {
		if r.Findings[i-1].Detail > r.Findings[i].Detail {
			t.Fatal("Finalize did not sort findings")
		}
	}
	if s := r.Summary(); !strings.Contains(s, "8 repair(s)") || !strings.Contains(s, "2 quarantined") {
		t.Fatalf("summary %q", s)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Findings    []Finding      `json:"findings"`
		Quarantined []string       `json:"quarantined"`
		Failed      []FailureEvent `json:"failed"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("health report JSON does not parse: %v", err)
	}
	if len(decoded.Findings) != 8 || len(decoded.Quarantined) != 2 || len(decoded.Failed) != 1 {
		t.Fatalf("decoded report %+v", decoded)
	}
	if strings.Contains(buf.String(), `"retries"`) {
		t.Fatalf("health report still carries a retries list: %s", buf.String())
	}

	// Empty reports must encode [] not null for every list.
	var empty bytes.Buffer
	if err := NewReport().WriteJSON(&empty); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(empty.String(), "null") {
		t.Fatalf("empty report encodes null: %s", empty.String())
	}
}
