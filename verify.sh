#!/bin/sh
# verify.sh — the repo's full correctness gate (ROADMAP tier-1 plus the
# static-analysis and race checks added with cmd/scalvet). Run from the
# repository root; exits non-zero on the first failure.
set -eu

echo "==> non-test Go lines, repo minus perfbench/ and testdata/ (informational, gates nothing): $(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path '*/testdata/*' -exec cat {} + | wc -l | tr -d ' ')"

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go vet ./..."
go vet ./...

echo "==> benchmark harness against this tree (perfbench is its own module, so go build ./... never compiles it)"
(cd perfbench && go vet ./... && go test ./...)

echo "==> go test -race (sim, campaign, obs, journal, recipe; the campaign's chaos tests run in their own gates below)"
go test -race -skip 'TestChaos' ./internal/sim/... ./internal/campaign/... ./internal/obs/... ./internal/journal/... ./internal/recipe/...

echo "==> byte-identity gate (golden SHA-256 of Result.Encode: the app-set x proc-count matrix and the p32/MSI/TinyTest/generated-shape cells, under the race detector; goldens are never regenerated)"
go test -run 'TestSimByteIdentity|TestSimShapesByteIdentity|TestSimRepeatDeterminism' -race .

echo "==> chaos smoke (fault-injected campaigns under the race detector)"
go test -run Chaos -skip 'Chaos.*Resume' -race ./internal/campaign/...

echo "==> kill-resume chaos gate (killed at every journal op; resume must be byte-identical)"
go test -run 'Chaos.*Resume' -race ./internal/campaign/...

echo "==> observability e2e (tiny campaign; trace + metrics must parse)"
go test -run TestObsEndToEnd ./cmd/scaltool/

echo "==> run-cache race gate (singleflight + LRU eviction under the race detector; the serve chaos and diagnosis tests run in their own gates below)"
go test -race -skip 'TestChaos|TestPanicIsolation|TestCorruptSpill|TestDiagnose' ./internal/runcache/... ./internal/serve/...

echo "==> HTTP chaos gate (hostile transport + documents under the race detector)"
go test -run 'TestChaos|TestPanicIsolation|TestCorruptSpill' -race ./internal/serve/...

echo "==> fuzz smoke gate (committed seed corpora + 10s of new coverage per target)"
go test -run '^$' -fuzz FuzzProgramAdmission -fuzztime 10s ./internal/admission/
go test -run '^$' -fuzz FuzzAnalyzeRequest -fuzztime 10s ./internal/serve/
go test -run '^$' -fuzz FuzzDecodeSpillFrame -fuzztime 10s ./internal/runcache/

echo "==> serving e2e (scaltoold: bind, concurrent cached analyses, SIGTERM drain; budget flags; atomic trace flush; one P outside executing analyses)"
go test -run 'TestScaltooldServeE2E|TestScaltooldBudgetFlags|TestScaltooldTraceFlush|TestScaltooldProcsFollowWork' ./cmd/scaltoold/

echo "==> diagnosis e2e gate (/v1/diagnose: deterministic ranked culprits tiling the scaling loss, under the race detector)"
go test -run 'TestDiagnose' -race ./internal/diagnose/... ./internal/serve/...

echo "==> fleet chaos gate (replicas SIGKILLed under load; zero non-retryable failures, byte-identical answers)"
go test -run 'TestFleetChaos' -race ./internal/fleet/

echo "==> fleet race gate (router, supervisor, prober under the race detector)"
go test -race -skip 'TestFleetChaos' ./internal/fleet/

echo "==> router e2e (scalrouter: static + supervised-spawn fleets, SIGTERM drain)"
go test -run 'TestScalrouter' ./cmd/scalrouter/

echo "==> scalvet self-host (the analyzer and its driver hold themselves to zero findings)"
go run ./cmd/scalvet ./internal/analysis/... ./cmd/scalvet

echo "==> scalvet baseline gate (whole repo; any finding beyond scalvet.baseline.json fails)"
go run ./cmd/scalvet -baseline check ./...

echo "verify: all gates passed"
