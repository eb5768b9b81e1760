#!/usr/bin/env bash
# CI entry point: formatting and vet gates, documentation link and
# symbol checks, build, a vet of the nested e2ebench module,
# race-enabled tests (which include the oracle-certified pipeline harness
# and the obs/stats/table/deps allocation regressions), the storage
# persistence/fault-injection suite, and a short fuzz smoke of the nine
# fuzz targets (parsers, loaders, sketches, snapshots, delta partition
# refinement, the Restruct attribute drop, the int interning table). Run from the repository
# root; the GitHub Actions workflow (.github/workflows/ci.yml) invokes
# exactly this script so local runs reproduce CI bit for bit.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "==> gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
  echo "gofmt: files need formatting:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> doc links"
./scripts/doclinks.sh

echo "==> doc symbols vs package declarations"
./scripts/docsyms.sh

echo "==> counter inventory vs DESIGN.md"
./scripts/counterdocs.sh

echo "==> go build"
go build ./...

echo "==> e2ebench: vet the nested benchmark module (root ./... skips it)"
(cd e2ebench && go vet .)

echo "==> go test -race (unit + differential harness + alloc regressions)"
go test -race ./...

echo "==> oracle harness: pipeline reports vs the definition-level oracle, non-short under -race (explicit)"
go test -race -count=1 -run 'TestReverseEquivalenceCachedParallel|TestPaperReportMatchesOracle' .

echo "==> epochs: pins racing commits under -race, 10 rounds (explicit)"
go test -race -count=10 -run 'TestDiscoveryConcurrentWithIngest|TestPinEpochLazyRestoreConcurrentAppend|TestPinEpochPublishedOnBuild|TestPinEpochConcurrentAppend' ./internal/core ./internal/table

echo "==> sketches: on-demand catch-up, rollback between reads, concurrent readers under -race, 3 rounds (explicit)"
go test -race -count=3 -run 'TestSketchesCatchUpOnDemand|TestSketchesRebuildOnStrictRollback|TestSketchesConcurrentReaders' ./internal/table

echo "==> ingest: adoption, scheduling, exact counters under -race, 3 rounds (explicit)"
go test -race -count=3 -run 'TestAppendBatchAdopt|TestIngestCounters|TestLoadDirUnevenSizes' ./internal/table ./internal/csvio

echo "==> int interning, Restruct fan-out, serial Parallelism 0 under -race, 3 rounds (explicit)"
go test -race -count=3 -run 'TestIntTable|TestAppendBatchStrictDifferential|TestAppendBatchAdopt|TestDropAttrs|TestApproxBytesDeltaAccounting|TestProjectDistinctConcurrentSources|TestWorkersMatchOneAtATime|TestWorkersPipelineWorkloads|TestWorkersAttrIsEffective|TestE2EExplicitZeroParallelismIsSerial' ./internal/table ./internal/restruct ./internal/core ./internal/serve

echo "==> job server: e2e + concurrency suite under -race (explicit)"
go test -race -count=1 ./internal/serve/...

echo "==> job server: resident pool stampede/eviction/append suite under -race (explicit)"
go test -race -count=1 -run 'TestPool' ./internal/serve

echo "==> scan memo + lazy traces: shared Q, trace rendering and panic isolation under -race, 3 rounds (explicit)"
go test -race -count=3 -run 'TestScanMemo|TestTraceRenderedOnDemand|TestJobPanicIsolated|TestAppendPanicIsolated|TestSharedProgramScan' ./internal/serve ./internal/core

echo "==> job server: CLI start/submit/shutdown smoke"
go test -race -count=1 -run 'TestServeSmoke' ./cmd/dbre

echo "==> storage: snapshot round-trip, WAL replay, fault injection under -race (explicit)"
go test -race -count=1 ./internal/storage/...

echo "==> allocation regressions (explicit, without -race instrumentation)"
go test -run 'TestAlloc' ./internal/stats ./internal/obs ./internal/table ./internal/deps

echo "==> perf gate: B9/B12/B13/B14/B15/B16/B17 vs checked-in baselines"
./scripts/perfgate.sh

echo "==> fuzz smoke: FuzzLoadSQL (${FUZZTIME})"
go test -run=^$ -fuzz='^FuzzLoadSQL$' -fuzztime="${FUZZTIME}" ./internal/sql/exec

echo "==> fuzz smoke: FuzzScanSource (${FUZZTIME})"
go test -run=^$ -fuzz='^FuzzScanSource$' -fuzztime="${FUZZTIME}" ./internal/appscan

echo "==> fuzz smoke: FuzzCSVLoad (${FUZZTIME})"
go test -run=^$ -fuzz='^FuzzCSVLoad$' -fuzztime="${FUZZTIME}" ./internal/csvio

echo "==> fuzz smoke: FuzzJobRequest (${FUZZTIME})"
go test -run=^$ -fuzz='^FuzzJobRequest$' -fuzztime="${FUZZTIME}" ./internal/serve

echo "==> fuzz smoke: FuzzSketchEstimate (${FUZZTIME})"
go test -run=^$ -fuzz='^FuzzSketchEstimate$' -fuzztime="${FUZZTIME}" ./internal/sketch

echo "==> fuzz smoke: FuzzSnapshotRoundTrip (${FUZZTIME})"
go test -run=^$ -fuzz='^FuzzSnapshotRoundTrip$' -fuzztime="${FUZZTIME}" ./internal/storage

echo "==> fuzz smoke: FuzzDeltaRefine (${FUZZTIME})"
go test -run=^$ -fuzz='^FuzzDeltaRefine$' -fuzztime="${FUZZTIME}" ./internal/table

echo "==> fuzz smoke: FuzzDropAttrs (${FUZZTIME})"
go test -run=^$ -fuzz='^FuzzDropAttrs$' -fuzztime="${FUZZTIME}" ./internal/table

echo "==> fuzz smoke: FuzzIntTable (${FUZZTIME})"
go test -run=^$ -fuzz='^FuzzIntTable$' -fuzztime="${FUZZTIME}" ./internal/table

echo "==> ci.sh: all green"
