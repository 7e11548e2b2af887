package sim_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scaltool/internal/admission"
	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/counters"
	"scaltool/internal/health"
	"scaltool/internal/machine"
	"scaltool/internal/sim"
)

// TestSimulatorReportsNeedNoSanitizing is the evidence behind the campaign
// asserting, rather than repairing, its reports: every report the simulator
// produces passes health.Sanitize with zero findings at the campaign's
// MinCPI. The inputs are every application's campaign on the scaled Origin
// (base, uni, ksync and kspin runs at processor counts 1 through 32), 1,000
// random programs, and every program the committed FuzzProgramAdmission
// corpus admits.
func TestSimulatorReportsNeedNoSanitizing(t *testing.T) {
	check := func(t *testing.T, id string, cfg machine.Config, rep *counters.RunReport) {
		t.Helper()
		if _, fs := health.Sanitize(id, rep, campaign.MinCPI(cfg)); len(fs) > 0 {
			t.Errorf("%s needs sanitizing: %v", id, fs)
		}
	}

	t.Run("apps", func(t *testing.T) {
		cfg := machine.ScaledOrigin()
		for _, name := range apps.Names() {
			app, err := apps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := campaign.NewPlan(app, cfg, 32, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := (&campaign.Runner{Cfg: cfg}).Run(app, plan)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for n, r := range res.BaseRuns {
				check(t, name+"/"+campaign.RunID("base", n, r.DataBytes), cfg, &r.Report)
			}
			for s, r := range res.UniRuns {
				check(t, name+"/"+campaign.RunID("uni", 1, s), cfg, &r.Report)
			}
			for n, r := range res.SyncKernels {
				check(t, name+"/"+campaign.RunID("ksync", n, 0), cfg, &r.Report)
			}
			check(t, name+"/kspin", cfg, &res.SpinKernel.Report)
		}
	})

	t.Run("random", func(t *testing.T) {
		cfg := machine.TinyTest()
		for seed := int64(0); seed < 1000; seed++ {
			res, err := sim.Run(cfg, sim.RandomProgram(t, seed))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			check(t, "random seed "+strconv.FormatInt(seed, 10), cfg, &res.Report)
		}
	})

	t.Run("admission-corpus", func(t *testing.T) {
		cfg := machine.ScaledOrigin()
		budget := admission.DefaultBudget()
		corpus, err := filepath.Glob(filepath.Join("..", "admission", "testdata", "fuzz", "FuzzProgramAdmission", "*"))
		if err != nil || len(corpus) == 0 {
			t.Fatalf("no FuzzProgramAdmission corpus: %v", err)
		}
		admitted, runs := 0, 0
		for _, path := range corpus {
			spec, ok := corpusSpec(t, path)
			if !ok || spec.Validate() != nil {
				continue
			}
			app := spec.App()
			plan, err := campaign.NewPlan(app, cfg, 4, 0)
			if err != nil {
				continue
			}
			cost, rej := budget.EstimatePlan(cfg, app, plan, 2)
			if rej != nil || budget.CheckRequest(cost) != nil {
				continue
			}
			admitted++
			// The application runs of the plan; the estimation kernels are
			// the same programs the apps subtest covers.
			for _, j := range plan.Jobs() {
				if j.Kind != campaign.KindBase && j.Kind != campaign.KindUni {
					continue
				}
				prog, err := app.Build(cfg, j.Procs, j.Size)
				if err != nil {
					continue // below the program's grid: the campaign's skip path
				}
				res, err := sim.Run(cfg, prog)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				runs++
				check(t, filepath.Base(path)+"/"+campaign.RunID(j.Kind.String(), j.Procs, j.Size), cfg, &res.Report)
			}
		}
		if runs == 0 {
			t.Fatal("the corpus admitted no program that builds")
		}
		t.Logf("%d of %d corpus documents admitted, %d runs checked", admitted, len(corpus), runs)
	})
}

// corpusSpec decodes one "go test fuzz v1" corpus file holding a single
// []byte document into a program spec; ok is false when the document is
// not a spec at all.
func corpusSpec(t *testing.T, path string) (*admission.ProgramSpec, bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s is not a one-value fuzz corpus file", path)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	doc, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var spec admission.ProgramSpec
	if json.Unmarshal([]byte(doc), &spec) != nil {
		return nil, false
	}
	return &spec, true
}
