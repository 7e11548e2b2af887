package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"scaltool/internal/apps"
	"scaltool/internal/runcache"
)

func runcacheMisses(t *testing.T, s *Server) uint64 {
	t.Helper()
	return s.meter().Counter("scaltool_runcache_misses_total", "run-cache misses (a real simulation ran)").Value()
}

// TestTrailingDataIsMalformed: a body holding anything but whitespace after
// its one document is a 400 malformed, counted like any other 400; trailing
// whitespace is not data.
func TestTrailingDataIsMalformed(t *testing.T) {
	s, ts, _ := newTestServer(t, Options{Workers: 1})
	for _, body := range []string{`{"app":"swim","procs":8}garbage`, `{"app":"swim","procs":8}{"app":"nope"}`} {
		before := s.meter().ServeRejected("400").Value()
		resp, b := postAnalyze(t, ts.URL, strings.NewReader(body))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), `"malformed"`) {
			t.Fatalf("%s: %d %s, want 400 malformed", body, resp.StatusCode, b)
		}
		if got := s.meter().ServeRejected("400").Value(); got != before+1 {
			t.Fatalf("%s: 400 rejections %d → %d, want one more", body, before, got)
		}
	}
	// Whitespace after the document is still one document: the refusal is
	// the document's own (an unknown app), not malformed.
	resp, b := postAnalyze(t, ts.URL, strings.NewReader("{\"app\":\"nope\"} \n\t\r\n"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("trailing whitespace: %d %s, want the document's own 422", resp.StatusCode, b)
	}
}

// TestWarmRunCacheBodiesMatchCold serves /v1/analyze and /v1/diagnose once
// from a cold run cache (every run simulated on the campaign's pool) and
// again from a second server sharing the now-warm cache, whose campaigns
// run every job inline. The bodies are byte-identical and the warm server
// simulates nothing.
func TestWarmRunCacheBodiesMatchCold(t *testing.T) {
	cache := runcache.New(runcache.Options{})
	doc := `{"app":"t3dheat","procs":8}`
	bodies := func(url string) [2][]byte {
		_, a := postAnalyze(t, url, strings.NewReader(doc))
		_, d := postDiagnose(t, url, strings.NewReader(doc))
		return [2][]byte{a, d}
	}
	_, cts, cmt := newTestServer(t, Options{Workers: 1, Cache: cache})
	cold := bodies(cts.URL)
	if simRuns(cmt) == 0 {
		t.Fatal("cold server simulated nothing")
	}
	ws, wts, wmt := newTestServer(t, Options{Workers: 1, Cache: cache})
	warm := bodies(wts.URL)
	for i, route := range []string{"/v1/analyze", "/v1/diagnose"} {
		if !bytes.HasPrefix(cold[i], []byte(`{"app":"t3dheat"`)) {
			t.Fatalf("%s cold: %s", route, cold[i])
		}
		if !bytes.Equal(cold[i], warm[i]) {
			t.Fatalf("%s: warm body differs from cold:\n%s\nvs\n%s", route, warm[i], cold[i])
		}
	}
	if n := simRuns(wmt); n != 0 || runcacheMisses(t, ws) != 0 {
		t.Fatalf("warm server simulated %d runs (%d misses), want none", n, runcacheMisses(t, ws))
	}
}

// smallProcsDigests are the SHA-256s of the /v1/analyze bodies the server
// answered 200 for every built-in application at 1, 2 and 4 processors on
// both machines, before plans too small to fit were refused. Every other
// document in that matrix was a 500 ("only 2 usable uniprocessor runs").
var smallProcsDigests = map[string]string{
	"scaled/hydro2d/2": "a029ca7314ad84bdcd3998114167eb948783c66d17ef520edfeeb2f56709cfc0",
	"scaled/hydro2d/4": "a28380d963ed73b775496e9cb3899f4c63755a0310bfd90d3f6c4c7666c37ca7",
	"scaled/matmul/4":  "254355627fe002aef69f3f4a8e019f4d13992f4f274791eca8d928efce7ef925",
	"scaled/spmv/4":    "356962c0d6e7658fe51eb559cdbef51e1e699855b5208e1979b4abaa54819d10",
	"scaled/swim/4":    "5ac51b2bb9c4128f9d3002d9668c81fe5b3167b48b8c1ce43bd7a691e49dfa1d",
	"scaled/t3dheat/4": "c554fa5d621260c35c75e955086998bfcb35731cd4a00fe11ba31c3564a46b23",
	"origin/hydro2d/2": "d3f031b03b496feb05bd8e34873de1b13733930be6b49cca3c9475a878b6d832",
	"origin/hydro2d/4": "2f3701d8939dea020032d1d88505ccbda29b668e5354e94d975a28cf909b8153",
	"origin/matmul/4":  "53f96264d003e5c5b9732cb9647adafb83d388d7b6bfb76f7e16d49e96982bba",
	"origin/spmv/4":    "59dc823164a9e86f540e59d80e670b7350c7c2bbc281919805e363784e833570",
	"origin/swim/4":    "873694c4b2af28121494728cfe103f2c559bb92c70d750960b7dbefe2f7e9846",
	"origin/t3dheat/4": "d9f79935e4fc6a183441d54219ce061a25eac5d9167236a51317bb2ff8524d00",
}

// TestSmallProcsPlans: a document whose plan reaches fewer than three
// distinct uniprocessor sizes is refused with 422 bad_plan before admission,
// simulating nothing; every other document in the matrix answers with the
// same bytes as before. Under the race detector the origin machine's full
// campaigns (minutes there) are left to the plain test run.
func TestSmallProcsPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns on both machines")
	}
	names := apps.Names()
	if len(names) != 5 {
		t.Fatalf("built-in applications %v; the pinned digests cover five", names)
	}
	refusals := 0
	for _, machine := range []string{"scaled", "origin"} {
		for _, app := range names {
			for _, procs := range []int{1, 2, 4} {
				key := fmt.Sprintf("%s/%s/%d", machine, app, procs)
				t.Run(key, func(t *testing.T) {
					s, ts, _ := newTestServer(t, Options{Workers: 1, Cache: runcache.New(runcache.Options{})})
					doc := fmt.Sprintf(`{"app":%q,"procs":%d,"machine":%q}`, app, procs, machine)
					want, ok := smallProcsDigests[key]
					if ok && raceDetector && machine == "origin" {
						t.Skip("full origin campaign under the race detector")
					}
					resp, body := postAnalyze(t, ts.URL, strings.NewReader(doc))
					if !ok {
						refusals++
						if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), `"bad_plan"`) {
							t.Fatalf("%d %s, want 422 bad_plan", resp.StatusCode, body)
						}
						if n := runcacheMisses(t, s); n != 0 {
							t.Fatalf("refused document simulated %d runs", n)
						}
						return
					}
					sum := sha256.Sum256(body)
					if resp.StatusCode != http.StatusOK || hex.EncodeToString(sum[:]) != want {
						t.Fatalf("%d, body digest %x, want 200 with digest %s: %.200s", resp.StatusCode, sum, want, body)
					}
				})
			}
		}
	}
	if refusals != 18 {
		t.Fatalf("%d refusals, want the 18 documents that failed to fit", refusals)
	}
}
