package analysis

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// loadFacts builds the Facts layer over a standalone fixture package.
func loadFacts(t *testing.T, fixture string) (*Package, *Facts) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	return pkg, buildFacts([]*Package{pkg})
}

// funcNamed finds a declared function by shortFuncName suffix, e.g. "root"
// or "(square).area".
func funcNamed(t *testing.T, f *Facts, suffix string) *types.Func {
	t.Helper()
	var found *types.Func
	for fn := range f.decls {
		name := shortFuncName(fn)
		if strings.HasSuffix(name, "."+suffix) {
			if found != nil {
				t.Fatalf("ambiguous function suffix %q (%s and %s)", suffix, shortFuncName(found), name)
			}
			found = fn
		}
	}
	if found == nil {
		t.Fatalf("no declared function matching %q", suffix)
	}
	return found
}

func TestHotReachability(t *testing.T) {
	_, facts := loadFacts(t, "callgraph")
	for _, name := range []string{"root", "helper", "leaf"} {
		if !facts.IsHot(funcNamed(t, facts, name)) {
			t.Errorf("%s must be hot: it is reachable from the annotated root", name)
		}
	}
	// coldOnly calls leaf but nothing hot calls coldOnly.
	if facts.IsHot(funcNamed(t, facts, "coldOnly")) {
		t.Error("coldOnly is not reachable from any root and must stay cold")
	}
}

func TestInterfaceDispatchExpansion(t *testing.T) {
	_, facts := loadFacts(t, "callgraph")
	if !facts.IsHot(funcNamed(t, facts, "(square).area")) {
		t.Error("square.area must be hot: root calls area through the shaper interface")
	}
	if !facts.IsHot(funcNamed(t, facts, "(*circle).area")) {
		t.Error("circle.area must be hot: pointer receivers satisfy the interface too")
	}
	if facts.IsHot(funcNamed(t, facts, "(blob).unrelated")) {
		t.Error("blob.unrelated is not part of any interface root calls; it must stay cold")
	}
}

func TestFunctionValueAndClosureEdges(t *testing.T) {
	_, facts := loadFacts(t, "callgraph")
	if !facts.IsHot(funcNamed(t, facts, "valueTarget")) {
		t.Error("valueTarget must be hot: viaValue references it as a value (conservative edge)")
	}
	if !facts.IsHot(funcNamed(t, facts, "closureTarget")) {
		t.Error("closureTarget must be hot: called from a closure of the hot viaClosure")
	}
}

func TestHotChainRendering(t *testing.T) {
	_, facts := loadFacts(t, "callgraph")
	chain := facts.HotChain(funcNamed(t, facts, "leaf"))
	for _, want := range []string{"callgraph.root marked //scalvet:hot", "callgraph.helper", "callgraph.leaf", " → "} {
		if !strings.Contains(chain, want) {
			t.Errorf("HotChain(leaf) = %q, missing %q", chain, want)
		}
	}
	if got := facts.HotChain(funcNamed(t, facts, "coldOnly")); got != "" {
		t.Errorf("HotChain of a cold function must be empty, got %q", got)
	}
}
