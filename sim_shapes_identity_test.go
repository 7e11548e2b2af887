package scaltool_test

// The second byte-identity gate: shapes TestSimByteIdentity does not reach.
//
// testdata/sim_golden_shapes_sha256.json holds the SHA-256 of
// sim.EncodeResult for cells outside the ScaledOrigin/Illinois/p1–p16
// matrix, captured before the per-line path rework and never regenerated:
//
//   - every application at 32 processors, where the per-region directory
//     merge and the lane pool carry the most weight;
//   - MSI-protocol cells, where every read fill is Shared and every first
//     store upgrades;
//   - TinyTest cells, whose L1 has 8 sets but only 4 lines per page, so
//     its set index does go through the physical-frame scramble;
//   - fixed-seed generated programs with negative, sub-line and
//     longer-than-line strides, gathers that revisit lines, and critical
//     sections, on both TinyTest and ScaledOrigin.
//
// verify.sh runs it under -race beside TestSimByteIdentity.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/machine"
	"scaltool/internal/memdsm"
	"scaltool/internal/sim"
)

const shapesGoldenPath = "testdata/sim_golden_shapes_sha256.json"

// shapeSeeds are the generated programs' seeds; each runs on both machines.
var shapeSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}

// resultDigest returns the SHA-256 hex of a run's encoded Result.
func resultDigest(t *testing.T, key string, cfg machine.Config, prog *sim.Program) string {
	t.Helper()
	res, err := sim.Run(cfg, prog)
	if err != nil {
		t.Fatalf("%s: run: %v", key, err)
	}
	h := sha256.New()
	if err := sim.EncodeResult(h, res); err != nil {
		t.Fatalf("%s: encode: %v", key, err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// shapeProgram builds a seeded program whose ops cover every shape the
// engine's per-line path distinguishes: unit, sub-line, multi-line and
// page-crossing strides in both directions, zero stride, gathers with
// repeated lines, critical sections, idle processors, and both placement
// policies that matter for homes.
func shapeProgram(t *testing.T, cfg machine.Config, seed int64) *sim.Program {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	procs := []int{1, 2, 3, 4, 8, 16}[rng.Intn(6)]
	dataBytes := uint64(cfg.L2.SizeBytes) * uint64(1+rng.Intn(12))
	prog, err := sim.NewProgram(fmt.Sprintf("shape%d", seed), procs, dataBytes, cfg.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(3) == 0 {
		prog.Placement = memdsm.RoundRobin
	}
	arr := prog.MustAlloc("a", dataBytes)
	line, page := int64(cfg.L1.LineBytes), int64(cfg.PageBytes)
	strides := []int64{8, -8, 4, 16, -24, line, -line, line + 8, 3*line - 8, -5 * line, page + 8, -page - 16, 0}
	for r, regions := 0, 1+rng.Intn(8); r < regions; r++ {
		reg := prog.AddRegion(fmt.Sprintf("r%d", r))
		for p := 0; p < procs; p++ {
			if rng.Intn(5) == 0 {
				continue // idle this region
			}
			st := reg.Proc(p)
			for ops := 1 + rng.Intn(6); ops > 0; ops-- {
				switch k := rng.Intn(10); {
				case k == 0:
					st.Compute(uint64(1 + rng.Intn(4000)))
				case k <= 6:
					stride := strides[rng.Intn(len(strides))]
					count := uint64(1 + rng.Intn(3000))
					span := uint64(stride)
					if stride < 0 {
						span = uint64(-stride)
					}
					if span > 0 {
						if most := (dataBytes - 8) / span; count > most+1 {
							count = most + 1
						}
					}
					lo := uint64(0)
					if stride < 0 {
						lo = (count - 1) * span
					}
					hi := dataBytes - 8
					if stride > 0 {
						hi -= (count - 1) * span
					}
					start := lo + uint64(rng.Int63n(int64(hi-lo+1)))
					st.Seq(arr.Base+start, count, stride, rng.Intn(2) == 0, uint64(rng.Intn(3)))
				case k <= 8:
					addrs := make([]uint64, 1+rng.Intn(64))
					hot := uint64(rng.Int63n(int64(dataBytes - 8)))
					for i := range addrs {
						if rng.Intn(3) == 0 {
							addrs[i] = arr.Base + hot + uint64(rng.Intn(8))
						} else {
							addrs[i] = arr.Base + uint64(rng.Int63n(int64(dataBytes)))
						}
					}
					st.Gather(addrs, rng.Intn(2) == 0, uint64(rng.Intn(3)))
				default:
					st.Critical(uint64(1 + rng.Intn(300)))
				}
			}
		}
	}
	return prog
}

// shapeDigests runs every cell of the shapes gate.
func shapeDigests(t *testing.T) map[string]string {
	got := map[string]string{}
	scaled, tiny := machine.ScaledOrigin(), machine.TinyTest()
	msi := scaled
	msi.Protocol = machine.MSI
	tinyMSI := tiny
	tinyMSI.Protocol = machine.MSI
	cells := []struct {
		tag   string
		cfg   machine.Config
		procs []int
		apps  []string
		scale uint64 // data-set size in multiples of the app's default
	}{
		{"scaled", scaled, []int{32}, apps.Names(), 1},
		{"scaled-msi", msi, []int{1, 4, 8}, []string{"hydro2d", "swim", "t3dheat"}, 1},
		{"tiny", tiny, []int{1, 2, 8}, apps.Names(), 8},
		{"tiny-msi", tinyMSI, []int{4}, []string{"hydro2d", "swim"}, 8},
	}
	for _, c := range cells {
		for _, name := range c.apps {
			app, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range c.procs {
				key := fmt.Sprintf("%s/%s/p%d", c.tag, name, procs)
				prog, err := app.Build(c.cfg, procs, c.scale*app.DefaultBytes(c.cfg))
				if err != nil {
					t.Fatalf("%s: build: %v", key, err)
				}
				got[key] = resultDigest(t, key, c.cfg, prog)
			}
		}
	}
	for _, cfg := range []struct {
		tag string
		cfg machine.Config
	}{{"scaled", scaled}, {"tiny", tiny}, {"tiny-msi", tinyMSI}} {
		for _, seed := range shapeSeeds {
			key := fmt.Sprintf("%s/shape/s%d", cfg.tag, seed)
			got[key] = resultDigest(t, key, cfg.cfg, shapeProgram(t, cfg.cfg, seed))
		}
	}
	return got
}

func TestSimShapesByteIdentity(t *testing.T) {
	got := shapeDigests(t)
	if os.Getenv("SCALTOOL_CAPTURE_SHAPES_GOLDEN") != "" {
		if _, err := os.Stat(shapesGoldenPath); err == nil {
			t.Fatalf("%s exists; the shapes goldens are captured once and never regenerated", shapesGoldenPath)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shapesGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), shapesGoldenPath)
		return
	}
	data, err := os.ReadFile(shapesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", shapesGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, the gate produced %d", len(want), len(got))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: in golden file but not produced by the gate", key)
		} else if g != w {
			t.Errorf("%s: Result bytes diverged from the captured golden\n  want %s\n  got  %s", key, w, g)
		}
	}
}
