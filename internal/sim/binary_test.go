package sim_test

import (
	"bytes"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

// runApp simulates one application at its default size on the machine the
// daemon serves by default.
func runApp(tb testing.TB, name string, procs int) *sim.Result {
	tb.Helper()
	cfg := machine.ScaledOrigin()
	app, err := apps.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := app.Build(cfg, procs, app.DefaultBytes(cfg))
	if err != nil {
		tb.Fatalf("%s/p%d: build: %v", name, procs, err)
	}
	res, err := sim.Run(cfg, prog)
	if err != nil {
		tb.Fatalf("%s/p%d: run: %v", name, procs, err)
	}
	return res
}

func encodeJSON(tb testing.TB, r *sim.Result) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := sim.EncodeResult(&buf, r); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryRoundTripIsByteIdentical: for every application at processor
// counts up to 32, t3dheat/p32 (the largest frame) included, a Result
// decoded from its binary form encodes to exactly the canonical JSON of the
// original, and truncated prefixes of the binary form are refused.
func TestBinaryRoundTripIsByteIdentical(t *testing.T) {
	for _, name := range apps.Names() {
		for _, procs := range []int{1, 2, 8, 32} {
			res := runApp(t, name, procs)
			bin := sim.AppendBinary(nil, res)
			got, err := sim.DecodeBinary(bin)
			if err != nil {
				t.Fatalf("%s/p%d: decode: %v", name, procs, err)
			}
			if !bytes.Equal(encodeJSON(t, got), encodeJSON(t, res)) {
				t.Fatalf("%s/p%d: round trip changed the canonical encoding", name, procs)
			}
			if n := truncationAccepted(bin); n >= 0 {
				t.Fatalf("%s/p%d: %d-byte prefix of a %d-byte frame decoded", name, procs, n, len(bin))
			}
		}
	}
}

// truncationAccepted decodes prefixes of bin and returns the length of the
// first one that decodes, or -1. A frame up to 8 KiB has every prefix
// tried. A larger one, whose full sweep would be quadratic in its size
// (t3dheat/p32 is 1.5 MB), has its first 64 prefixes, 64 spread evenly
// after them and its last 16 tried.
func truncationAccepted(bin []byte) int {
	const full, head, spread, tail = 8 << 10, 64, 64, 16
	try := func(n int) bool {
		_, err := sim.DecodeBinary(bin[:n])
		return err == nil
	}
	for n := 0; n < len(bin); n++ {
		if len(bin) > full && n == head {
			for i := 0; i < spread; i++ {
				if m := head + i*(len(bin)-head-tail)/spread; try(m) {
					return m
				}
			}
			n = len(bin) - tail
		}
		if try(n) {
			return n
		}
	}
	return -1
}

// TestBinaryKeepsNilAndEmptySlices: the JSON form writes a nil slice as
// null and an empty one as [], so the binary form must keep them apart.
func TestBinaryKeepsNilAndEmptySlices(t *testing.T) {
	for _, mutate := range []func(r *sim.Result){
		func(r *sim.Result) { r.Ground.Regions = nil },
		func(r *sim.Result) { r.Ground.Regions = []sim.RegionAttribution{} },
		func(r *sim.Result) { r.Ground.Regions[0].PerProc = nil },
		func(r *sim.Result) { r.Ground.Regions[0].PerProc = []sim.ProcPhases{} },
	} {
		res := runApp(t, "swim", 2)
		mutate(res)
		got, err := sim.DecodeBinary(sim.AppendBinary(nil, res))
		if err != nil {
			t.Fatal(err)
		}
		if want, have := encodeJSON(t, res), encodeJSON(t, got); !bytes.Equal(want, have) {
			t.Fatalf("round trip changed the canonical encoding:\n%.200s\nvs\n%.200s", want, have)
		}
	}
}

var decoded *sim.Result

// BenchmarkDecodeBinary times reloading the largest spilled entry the
// daemon produces by default, t3dheat at 32 processors.
func BenchmarkDecodeBinary(b *testing.B) {
	bin := sim.AppendBinary(nil, runApp(b, "t3dheat", 32))
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.DecodeBinary(bin)
		if err != nil {
			b.Fatal(err)
		}
		decoded = r
	}
}
