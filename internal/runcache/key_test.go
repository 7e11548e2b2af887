package runcache

import (
	"testing"

	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

// TestKeyPinned pins the hex content address of one fixed TinyTest program
// that uses every op kind. Spill files are named by this digest, so an
// encoding slip in KeyFor (a reordered field, a changed width, a buffering
// bug) would orphan every spill directory without failing any other test.
// The want value was captured from the unbuffered per-field encoder.
func TestKeyPinned(t *testing.T) {
	cfg := machine.TinyTest()
	prog, err := sim.NewProgram("pinned", 3, 4096, cfg.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	arr := prog.MustAlloc("a", 4096)
	for r := 0; r < 2; r++ {
		reg := prog.AddRegion("r")
		for p := 0; p < 3; p++ {
			st := reg.Proc(p)
			st.Compute(uint64(100 + p))
			st.Read(arr.Base+uint64(p)*512, 40, 8, 2)
			st.Write(arr.Base+4000, 30, -24, 0)
			st.Gather([]uint64{arr.Base + 7, arr.Base + 1033, arr.Base + uint64(r)}, p == 1, 1)
			st.Critical(50)
		}
	}
	const want = "93c566162f13f9a0694b8bdef8b8a81c33c2ddb2d72f292a2e535c3c1b7955bb"
	if got := KeyFor(cfg, prog).String(); got != want {
		t.Fatalf("KeyFor = %s, want %s", got, want)
	}
}
