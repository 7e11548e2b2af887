package apps

import (
	"testing"

	"scaltool/internal/machine"
)

// TestAchievedBytesMatchesBuild pins every registered application's closed
// form to its builder: over sizes from below the grid to past the default,
// AchievedBytes is the built program's DataBytes, or 0 exactly when the
// uniprocessor build refuses the size.
func TestAchievedBytesMatchesBuild(t *testing.T) {
	for _, cfg := range []machine.Config{machine.ScaledOrigin(), machine.TinyTest()} {
		for _, name := range Names() {
			app, _ := ByName(name)
			sz, ok := app.(interface {
				AchievedBytes(machine.Config, uint64) uint64
			})
			if !ok {
				t.Fatalf("%s does not implement Sizer", name)
			}
			top := 3 * app.DefaultBytes(cfg)
			for s := uint64(64); s <= top; s = s*5/4 + 7 {
				got := sz.AchievedBytes(cfg, s)
				prog, err := app.Build(cfg, 1, s)
				switch {
				case err != nil && got != 0:
					t.Fatalf("%s/%s size %d: Build refuses (%v) but AchievedBytes says %d", cfg.Name, name, s, err, got)
				case err == nil && got != prog.DataBytes:
					t.Fatalf("%s/%s size %d: AchievedBytes %d, Build achieves %d", cfg.Name, name, s, got, prog.DataBytes)
				}
			}
		}
	}
}
