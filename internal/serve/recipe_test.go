package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/campaign"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/recipe"
	"scaltool/internal/runcache"
)

// programBuilds sums scaltool_program_builds_total across its causes.
func programBuilds(mt *obs.Metrics) uint64 {
	var n uint64
	for _, c := range []string{recipe.CauseRecipe, recipe.CauseMiss, recipe.CauseGraph} {
		n += mt.Counter("scaltool_program_builds_total", "", "cause", c).Value()
	}
	return n
}

// TestWarmRepeatBuildsNothing is the operator-facing gate of the recipe
// table: the first request for a document builds its programs (counted on
// /metrics by cause), and a warm repeat of it — on /v1/analyze, on
// /v1/diagnose, or a user program spec — builds nothing and answers the
// same bytes. A repeat on the same server is a response-cache hit, so the
// recipe table is exercised by a second server sharing the run cache (the
// table is process-wide): its campaign builds nothing, though a diagnosis
// still builds its structure graph.
//
// The cold swim document also gates pricing's hand-off: its application
// runs take the programs pricing built, so its only miss builds are its
// estimation kernels, whose recipes the table already holds.
func TestWarmRepeatBuildsNothing(t *testing.T) {
	cache := runcache.New(runcache.Options{})
	_, ts, mt := newTestServer(t, Options{Workers: 2, Cache: cache})
	_, wts, wmt := newTestServer(t, Options{Workers: 2, Cache: cache})
	post := func(url, route, doc string) []byte {
		t.Helper()
		resp, err := http.Post(url+route, "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", route, doc, resp.StatusCode, body)
		}
		return body
	}
	// s0 values no other test uses, so the first request sees new recipes.
	const user = `{"program":{"name":"warm","arrays":[{"name":"a","elems":24576}],"regions":[{"name":"r","ops":[{"kind":"read","array":"a","instr_per":3},{"kind":"compute","instr":5000}]}]},"procs":4}`
	cases := []struct{ route, doc string }{
		{"/v1/analyze", `{"app":"swim","procs":4,"s0":262147}`},
		{"/v1/diagnose", `{"app":"hydro2d","procs":4,"s0":180007}`},
		{"/v1/analyze", `{"app":"hydro2d","procs":4,"s0":180007}`},
		{"/v1/analyze", user},
	}
	kernels := tableKernels(t, "swim", 4, 262147)
	for i, c := range cases {
		before := programBuilds(mt)
		cold := post(ts.URL, c.route, c.doc)
		if i == 0 {
			if mt.Counter("scaltool_program_builds_total", "", "cause", recipe.CauseRecipe).Value() == 0 {
				t.Fatal("a cold document counted no recipe builds")
			}
			if n := mt.Counter("scaltool_program_builds_total", "", "cause", recipe.CauseMiss).Value(); n != kernels {
				t.Fatalf("a cold document counted %d miss builds, want %d (its kernel runs only)", n, kernels)
			}
		}
		cold2 := programBuilds(mt)
		if i != 2 && cold2 == before {
			t.Fatalf("%s %s: the cold request counted no builds", c.route, c.doc)
		}
		warm := post(ts.URL, c.route, c.doc)
		if n := programBuilds(mt) - cold2; n != 0 {
			t.Fatalf("%s %s: a warm repeat built %d programs, want 0", c.route, c.doc, n)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("%s %s: warm body differs from cold", c.route, c.doc)
		}
		graphBefore := wmt.Counter("scaltool_program_builds_total", "", "cause", recipe.CauseGraph).Value()
		runBefore := programBuilds(wmt) - graphBefore
		warm = post(wts.URL, c.route, c.doc)
		graphAfter := wmt.Counter("scaltool_program_builds_total", "", "cause", recipe.CauseGraph).Value()
		if n := programBuilds(wmt) - graphAfter - runBefore; n != 0 {
			t.Fatalf("%s %s: a warm campaign on a second server built %d programs, want 0", c.route, c.doc, n)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("%s %s: second server's warm body differs from cold", c.route, c.doc)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	for _, series := range []string{`scaltool_program_builds_total{cause="recipe"}`, `scaltool_program_builds_total{cause="miss"}`, "scaltool_recipe_entries"} {
		if !bytes.Contains(page, []byte(series)) {
			t.Fatalf("/metrics lacks %s", series)
		}
	}
}

// tableKernels resolves the estimation-kernel recipes of app's plan at
// procs and s0 on the scaled machine, so the recipe table holds them
// whichever tests ran before, and returns how many of the plan's runs are
// kernels.
func tableKernels(t *testing.T, name string, procs int, s0 uint64) uint64 {
	t.Helper()
	cfg := machine.ScaledOrigin()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := campaign.NewPlan(app, cfg, procs, s0)
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for _, j := range plan.Jobs() {
		var r recipe.Recipe
		switch j.Kind {
		case campaign.KindSync:
			r = recipe.ForSyncKernel(cfg, j.Procs, apps.SyncKernelBarriers)
		case campaign.KindSpin:
			r = recipe.ForSpinKernel(cfg, j.Procs, apps.SpinKernelPhases, apps.SpinKernelWork)
		default:
			continue
		}
		recipe.Default.Resolve(context.Background(), r)
		n++
	}
	return n
}

// TestAchievedOverflowDocument is the regression for a document that used
// to fail with "only 1 uniproc runs overflow the L2": hydro2d's grid
// quantizes s0/2 below the overflow threshold, and the plan now counts
// achieved sizes. Both routes answer 200.
func TestAchievedOverflowDocument(t *testing.T) {
	_, ts, _ := newTestServer(t, Options{Workers: 2, Cache: runcache.New(runcache.Options{})})
	const doc = `{"app":"hydro2d","procs":32,"s0":201523}`
	for _, route := range []string{"/v1/analyze", "/v1/diagnose"} {
		resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", route, doc, resp.StatusCode, body)
		}
	}
}
