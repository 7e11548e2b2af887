package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// docs.json is the screened document list every workload draws from. It
// is generated once by `perfbench -gen` (see gen.go) and committed, so the
// inputs and their expected response bodies do not move with the code
// under test.
//
//go:embed docs.json
var docsJSON []byte

// doc is one /v1/analyze (or /v1/diagnose) request document with the
// SHA-256 of the response bodies it must produce.
type doc struct {
	ID             string `json:"id"`
	App            string `json:"app"`
	Procs          int    `json:"procs"`
	S0             uint64 `json:"s0,omitempty"` // 0 = the app's default size
	AnalyzeSHA256  string `json:"analyze_sha256"`
	DiagnoseSHA256 string `json:"diagnose_sha256"`
}

// body is the request document as sent on the wire.
func (d *doc) body() []byte {
	b, _ := json.Marshal(struct {
		App   string `json:"app"`
		Procs int    `json:"procs"`
		S0    uint64 `json:"s0,omitempty"`
	}{d.App, d.Procs, d.S0})
	return b
}

// excludedDoc is a candidate document screening refused, kept for the
// record.
type excludedDoc struct {
	App    string `json:"app"`
	Procs  int    `json:"procs"`
	S0     uint64 `json:"s0"`
	Status int    `json:"status"`
	Error  string `json:"error"`
}

// docSet is the parsed docs.json.
type docSet struct {
	GeneratedBy string        `json:"generated_by"`
	Docs        []*doc        `json:"docs"`
	Warm        []string      `json:"warm"`       // ids of the default-s0 documents
	ZipfOrder   []string      `json:"zipf_order"` // ids, most popular first
	Excluded    []excludedDoc `json:"excluded"`
}

// loadDocs parses raw and resolves its id lists.
func loadDocs(raw []byte) (*docSet, map[string]*doc, error) {
	var ds docSet
	if err := json.Unmarshal(raw, &ds); err != nil {
		return nil, nil, fmt.Errorf("parsing docs.json: %w", err)
	}
	byID := make(map[string]*doc, len(ds.Docs))
	for _, d := range ds.Docs {
		byID[d.ID] = d
	}
	for _, list := range [][]string{ds.Warm, ds.ZipfOrder} {
		for _, id := range list {
			if byID[id] == nil {
				return nil, nil, fmt.Errorf("docs.json: unknown document id %q", id)
			}
		}
	}
	if len(ds.Docs) == 0 || len(ds.Warm) == 0 || len(ds.ZipfOrder) == 0 {
		return nil, nil, fmt.Errorf("docs.json is incomplete; regenerate it with -gen")
	}
	return &ds, byID, nil
}

// request is one step of a workload's sequence: a document and the
// endpoint it goes to.
type request struct {
	Doc      *doc
	Diagnose bool
}

// path is the request's HTTP route.
func (r request) path() string {
	if r.Diagnose {
		return "/v1/diagnose"
	}
	return "/v1/analyze"
}

// label names the request in error messages.
func (r request) label() string {
	return r.path() + " " + string(r.Doc.body())
}

// checkBody compares a 200 body with the one screening recorded for the
// request; any difference is a correctness failure.
func checkBody(r request, body []byte) error {
	want := r.Doc.AnalyzeSHA256
	if r.Diagnose {
		want = r.Doc.DiagnoseSHA256
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("%s: body sha256 %s, expected %s", r.label(), got, want)
	}
	return nil
}

// workload is one traffic mix.
type workload struct {
	Name string
	// WarmUp requests every warm document once during set-up.
	WarmUp bool
	// CacheMB is the daemon's -cache-mb; Spill adds -cache-dir.
	CacheMB int
	Spill   bool
}

// daemonArgs are the workload's scaltoold flags, beyond -addr.
func (w workload) daemonArgs(spillDir string) []string {
	args := []string{"-cache-mb", fmt.Sprint(w.CacheMB)}
	if w.Spill {
		args = append(args, "-cache-dir", spillDir)
	}
	return args
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json lists the
// same names.
var workloads = []workload{
	{Name: "analyze-warm", CacheMB: 256, WarmUp: true},
	{Name: "mixed-spill", CacheMB: 4, Spill: true},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// seqLen is how many requests a sequence holds before it wraps; more than
// any run completes.
const seqLen = 1 << 16

// sequence is the workload's request order for a seed. The same seed
// always gives the same sequence.
//
//   - analyze-warm cycles through rounds of the default documents, each
//     round in a seeded order, so every run sees the same mix;
//   - mixed-spill does the same over rounds of zipfPool.
func sequence(w workload, ds *docSet, byID map[string]*doc, seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]request, 0, seqLen)
	rounds := func(pool []request) {
		for len(seq) < seqLen {
			for _, i := range rng.Perm(len(pool)) {
				seq = append(seq, pool[i])
			}
		}
		seq = seq[:seqLen]
	}
	switch w.Name {
	case "analyze-warm":
		pool := make([]request, len(ds.Warm))
		for i, id := range ds.Warm {
			pool[i] = request{Doc: byID[id]}
		}
		rounds(pool)
	case "mixed-spill":
		rounds(zipfPool(ds, byID))
	}
	return seq
}

// zipfRound is the length of one mixed-spill round.
const zipfRound = 200

// zipfPool is one mixed-spill round: every document of the fixed
// popularity order in proportion to its Zipf(1.1) weight, a quarter of each
// document's copies on /v1/diagnose. Fixing the round's contents, rather
// than drawing each request, keeps the mix the same for every seed.
func zipfPool(ds *docSet, byID map[string]*doc) []request {
	weights := make([]float64, len(ds.ZipfOrder))
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -1.1)
		total += weights[k]
	}
	var pool []request
	for k, id := range ds.ZipfOrder {
		n := max(1, int(math.Round(zipfRound*weights[k]/total)))
		diag := int(math.Round(float64(n) / 4))
		for i := 0; i < n; i++ {
			pool = append(pool, request{Doc: byID[id], Diagnose: i < diag})
		}
	}
	return pool
}
