package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"

	"scaltool/internal/apps"
	"scaltool/internal/machine"
	"scaltool/internal/runcache"
)

// Document generation. `perfbench -gen docs.json` draws candidate
// documents from genSeed, screens each against the daemon built from the
// current commit, and writes the survivors with the SHA-256 of their
// response bodies. Screening sends every document to a daemon with a run
// cache and to one without, and requires 200s with identical bodies from
// both; a size whose document fails at any processor count is dropped for
// the app and recorded under "excluded".

var (
	genApps  = []string{"swim", "hydro2d", "t3dheat"}
	genProcs = []int{8, 16, 32}
)

// genSeed seeds the candidate sizes and the popularity order.
const genSeed = 20261016

// genSizesPerApp is how many base sizes each app gets: its default and
// three larger ones.
const genSizesPerApp = 4

// knownBad are shapes found failing before this generator existed; they
// are screened (and so recorded) whatever the seed draws.
var knownBad = []excludedDoc{{App: "hydro2d", Procs: 32, S0: 201523}}

func generate(ctx context.Context, bin, tmp, out string, logw io.Writer) error {
	client := newClient(1)
	defer client.CloseIdleConnections()
	cached, err := startDaemon(ctx, bin, nil, filepath.Join(tmp, "gen-cached.log"), client)
	if err != nil {
		return err
	}
	defer cached.stop()
	uncached, err := startDaemon(ctx, bin, []string{"-cache-mb", "0"}, filepath.Join(tmp, "gen-uncached.log"), client)
	if err != nil {
		return err
	}
	defer uncached.stop()

	// screen returns the document with its body digests, or why it failed.
	screen := func(d *doc) (status int, msg string) {
		for _, diag := range []bool{false, true} {
			r := request{Doc: d, Diagnose: diag}
			var first []byte
			for _, base := range []string{cached.url(), uncached.url()} {
				code, body, err := post(ctx, client, base, r)
				if err != nil {
					return 0, err.Error()
				}
				if code != http.StatusOK {
					return code, string(bytes.TrimSpace(body))
				}
				if first != nil && !bytes.Equal(first, body) {
					return code, "cached and uncached bodies differ"
				}
				first = body
			}
			sum := sha256.Sum256(first)
			if diag {
				d.DiagnoseSHA256 = hex.EncodeToString(sum[:])
			} else {
				d.AnalyzeSHA256 = hex.EncodeToString(sum[:])
			}
		}
		return http.StatusOK, ""
	}

	ds := &docSet{GeneratedBy: fmt.Sprintf("perfbench -gen (seed %d)", genSeed)}
	for _, kb := range knownBad {
		kb := kb
		if status, msg := screen(&doc{App: kb.App, Procs: kb.Procs, S0: kb.S0}); status != http.StatusOK {
			kb.Status, kb.Error = status, msg
			ds.Excluded = append(ds.Excluded, kb)
		}
	}

	cfg := machine.ScaledOrigin()
	rng := rand.New(rand.NewSource(genSeed))
	for _, name := range genApps {
		app, err := apps.ByName(name)
		if err != nil {
			return err
		}
		def := app.DefaultBytes(cfg)
		seen := map[runcache.Key]bool{}
		for s0, tries := uint64(0), 0; len(seen) < genSizesPerApp; tries++ {
			if tries > 200 {
				return fmt.Errorf("%s: could not find %d screened sizes", name, genSizesPerApp)
			}
			size := def
			if s0 != 0 {
				size = s0
			}
			// Distinct uniprocessor base programs, so that no two sizes of
			// an app share their base runs.
			prog, err := app.Build(cfg, 1, size)
			if err != nil {
				return err
			}
			key := runcache.KeyFor(cfg, prog)
			next := uint64(float64(def) * (1.05 + 0.30*rng.Float64()))
			if seen[key] {
				s0 = next
				continue
			}
			var docs []*doc
			ok := true
			for _, procs := range genProcs {
				d := &doc{App: name, Procs: procs, S0: s0}
				d.ID = fmt.Sprintf("%s-p%d-default", name, procs)
				if s0 != 0 {
					d.ID = fmt.Sprintf("%s-p%d-s%d", name, procs, s0)
				}
				if status, msg := screen(d); status != http.StatusOK {
					ds.Excluded = append(ds.Excluded, excludedDoc{App: name, Procs: procs, S0: size, Status: status, Error: msg})
					ok = false
					break
				}
				docs = append(docs, d)
			}
			if ok {
				seen[key] = true
				ds.Docs = append(ds.Docs, docs...)
				if s0 == 0 {
					for _, d := range docs {
						ds.Warm = append(ds.Warm, d.ID)
					}
				}
				fmt.Fprintf(logw, "gen: %s s0=%d screened\n", name, size)
			}
			s0 = next
		}
	}
	for _, i := range rng.Perm(len(ds.Docs)) {
		ds.ZipfOrder = append(ds.ZipfOrder, ds.Docs[i].ID)
	}

	raw, err := json.MarshalIndent(ds, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(raw, '\n'), 0o644)
}
