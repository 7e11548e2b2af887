package serve

import (
	"encoding/json"
	"runtime"
	"sort"
	"strings"
	"testing"

	"scaltool/internal/admission"
	"scaltool/internal/runcache"
)

// TestRoutingKey pins the placement contract: documents that normalize to
// the same document share a key (omitted defaults do not move a document),
// different documents get different keys, the key is stable for documents
// a replica will refuse, and computing it builds nothing.
func TestRoutingKey(t *testing.T) {
	base := RoutingKey(&Request{App: "swim", Procs: 4})

	// Omitted defaults normalize: machine "" is "scaled".
	if got := RoutingKey(&Request{App: "swim", Procs: 4, Machine: "scaled"}); got != base {
		t.Fatalf("explicit default machine changed the key: %q vs %q", got, base)
	}
	// Different workload, procs, or machine → different key.
	for name, req := range map[string]*Request{
		"app":     {App: "hydro2d", Procs: 4},
		"procs":   {App: "swim", Procs: 8},
		"machine": {App: "swim", Procs: 4, Machine: "origin"},
		"s0":      {App: "swim", Procs: 4, S0: 1 << 24},
	} {
		if got := RoutingKey(req); got == base {
			t.Fatalf("%s change did not change the routing key", name)
		}
	}

	// Omitted procs defaults to 32 — the same key as an explicit 32.
	if RoutingKey(&Request{App: "swim"}) != RoutingKey(&Request{App: "swim", Procs: 32}) {
		t.Fatal("omitted procs and explicit 32 routed differently")
	}

	// Unknown apps and bad shapes still get a key, totally and stably.
	for _, req := range []*Request{
		{App: "not-an-app", Procs: 4},
		{App: "swim", Procs: 3},
		{App: "swim", Procs: 4, Machine: "cray"},
		{},
	} {
		got := RoutingKey(req)
		if again := RoutingKey(req); again != got {
			t.Fatalf("key of %+v unstable: %q vs %q", req, got, again)
		}
	}

	// Different program-spec procs → different key.
	spec := &admission.ProgramSpec{Name: "user-prog"}
	if RoutingKey(&Request{Program: spec, Procs: 4}) == RoutingKey(&Request{Program: spec, Procs: 8}) {
		t.Fatal("different program-spec procs shared a routing key")
	}

	// RoutingKey never mutates the caller's document.
	req := &Request{App: "swim"}
	_ = RoutingKey(req)
	if req.Procs != 0 || req.Machine != "" {
		t.Fatalf("RoutingKey mutated its argument: %+v", req)
	}

	// The router computes the key before any replica's admission caps apply,
	// so it must build nothing: neither a plan nor a program sized by the
	// document. Each of these documents is refused by every replica's caps.
	for name, req := range map[string]*Request{
		"spmv s0 64MiB": {App: "spmv", Procs: 32, S0: 64 << 20},
		"swim p65536":   {App: "swim", Procs: 65536},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = RoutingKey(req)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: RoutingKey allocated %d bytes, want under 1 MiB", name, d)
		}
	}
}

// TestRoutingKeyIsResponseCacheKey pins one document identity across the
// tiers: once a cached server has answered a document on both routes, its
// response cache holds exactly the document's routing key and that key
// under the diagnose route's prefix.
func TestRoutingKeyIsResponseCacheKey(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{Workers: 1, Cache: runcache.New(runcache.Options{})})
	const doc = `{"app":"swim","procs":4}`
	post200(t, ts.URL, "/v1/analyze", doc)
	post200(t, ts.URL, "/v1/diagnose", doc)
	var req Request
	if err := json.Unmarshal([]byte(doc), &req); err != nil {
		t.Fatal(err)
	}
	key := RoutingKey(&req)
	want := []string{key, "diag:" + key}
	sort.Strings(want)
	if got := responseKeys(s); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("response cache holds %v, want %v", got, want)
	}
}
