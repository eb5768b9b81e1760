#!/usr/bin/env bash
# CI entry point: formatting and vet gates, documentation link and
# symbol checks, build, a vet of the nested e2ebench module,
# race-enabled tests (which include the oracle-certified pipeline harness
# and the obs/stats/table/deps/fd allocation regressions), the exact work
# counters of the benchmarks, the snapshot round-trip and fault-injection
# suite, and a short fuzz smoke of the eight
# fuzz targets (parsers, loaders, snapshots, delta partition refinement,
# the Restruct attribute drop, the int interning table). Every
# leg that names its tests first checks that each name still matches one
# (go_test below). Run from the repository
# root; the GitHub Actions workflow (.github/workflows/ci.yml) invokes
# exactly this script so local runs reproduce CI bit for bit.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

# go_test runs go test with the given arguments after checking that each
# name of every -run alternation and -fuzz pattern matches a test, fuzz
# target, benchmark or example of the listed packages: a leg whose test
# was renamed or deleted would otherwise print "no tests to run" and
# pass. Patterns are plain alternations of (optionally ^...$-anchored)
# names; "^$", which runs nothing, is not checked.
go_test() {
  local args=("$@") pkgs=() patterns=() i listed name
  for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
      -run) patterns+=("${args[i + 1]}"); i=$((i + 1)) ;;
      -run=* | -fuzz=*) patterns+=("${args[i]#*=}") ;;
      .*) pkgs+=("${args[i]}") ;;
    esac
  done
  if ((${#patterns[@]} > 0)); then
    listed="$(go test -list . "${pkgs[@]}" | { grep -E '^(Test|Fuzz|Benchmark|Example)' || true; })"
    while IFS= read -r name; do
      [ "$name" = '^$' ] && continue
      if ! grep -qE -- "$name" <<<"$listed"; then
        echo "ci.sh: test name '$name' matches nothing in ${pkgs[*]}" >&2
        exit 1
      fi
    done < <(printf '%s\n' "${patterns[@]}" | tr '|' '\n')
  fi
  go test "${args[@]}"
}

# fuzz_smoke runs fuzz target $1 of package $2 for FUZZTIME. A failing
# target makes Go save its input under the package's
# testdata/fuzz/<target>/, where every later `go test` of the package
# would fail on it; the leg moves each input the run saved out to a
# fresh directory under $TMPDIR, prints its path, and still fails.
fuzz_smoke() {
  local target="$1" pkg="$2" corpus="$2/testdata/fuzz/$1" before f saved
  echo "==> fuzz smoke: ${target} (${FUZZTIME})"
  before="$(ls "$corpus" 2>/dev/null || true)"
  if go_test -run=^$ -fuzz="^${target}\$" -fuzztime="${FUZZTIME}" "$pkg"; then
    return 0
  fi
  saved="$(mktemp -d "${TMPDIR:-/tmp}/fuzz-${target}.XXXXXX")"
  for f in "$corpus"/*; do
    [ -e "$f" ] || continue
    grep -qxF -- "$(basename "$f")" <<<"$before" && continue
    mv "$f" "$saved/"
    echo "fuzz smoke: ${target} failed on the input now at ${saved}/$(basename "$f")" >&2
  done
  rmdir "$corpus" "$pkg/testdata/fuzz" "$pkg/testdata" 2>/dev/null || true
  exit 1
}

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
go_test -race -count=1 -run 'TestReverseEquivalenceCachedParallel|TestPaperReportMatchesOracle' .

echo "==> epochs: pins racing commits under -race, 10 rounds (explicit)"
go_test -race -count=10 -run 'TestDiscoveryConcurrentWithIngest|TestPinEpochLazyRestoreConcurrentAppend|TestPinEpochPublishedOnBuild|TestPinEpochConcurrentAppend' ./internal/core ./internal/table

echo "==> row sample: on-demand catch-up, rollback between reads, concurrent readers under -race, 3 rounds (explicit)"
go_test -race -count=3 -run 'TestSketchesCatchUpOnDemand|TestSketchesRebuildOnStrictRollback|TestSketchesConcurrentReaders' ./internal/table

echo "==> ingest: adoption, scheduling, exact counters, typed encoder vs boxed reference under -race, 3 rounds (explicit)"
go_test -race -count=3 -run 'TestAppendBatchAdopt|TestIngestCounters|TestLoadDirUnevenSizes|TestTypedEncoderMatchesBoxedReference' ./internal/table ./internal/csvio

echo "==> exact work counters: wide shape, serve-warm job, B9 cache, B12 kernel mix, B13 ingest, B14 sketch prunes, B15 snapshot bytes, B16 delta refines (explicit)"
go_test -count=1 -run 'TestWideShapeWorkCounters|TestServeWarmWorkCounters|TestB9CacheCounters|TestB12KernelMix|TestB13IngestCounters|TestB14SketchPrunes|TestB15SnapshotBytes|TestB16DeltaRefines' .

echo "==> int interning, Restruct fan-out, serial Parallelism 0 under -race, 3 rounds (explicit)"
go_test -race -count=3 -run 'TestIntTable|TestAppendBatchStrictDifferential|TestAppendBatchAdopt|TestDropAttrs|TestApproxBytesDeltaAccounting|TestProjectDistinctConcurrentSources|TestWorkersMatchOneAtATime|TestWorkersPipelineWorkloads|TestWorkersAttrIsEffective|TestE2EExplicitZeroParallelismIsSerial' ./internal/table ./internal/restruct ./internal/core ./internal/serve

echo "==> job server: e2e + concurrency suite under -race (explicit)"
go test -race -count=1 ./internal/serve/...

echo "==> job server: resident pool stampede/eviction/append suite under -race (explicit)"
go_test -race -count=1 -run 'TestPool' ./internal/serve

echo "==> scan memo + lazy traces: shared Q, trace rendering and panic isolation under -race, 3 rounds (explicit)"
go_test -race -count=3 -run 'TestScanMemo|TestTraceRenderedOnDemand|TestJobPanicIsolated|TestAppendPanicIsolated|TestSharedProgramScan' ./internal/serve ./internal/core

echo "==> job server: CLI start/submit/shutdown smoke"
go_test -race -count=1 -run 'TestServeSmoke' ./cmd/dbre

echo "==> storage: snapshot round-trip, legacy write-ahead log check, fault injection under -race (explicit)"
go test -race -count=1 ./internal/storage/...

echo "==> allocation regressions (explicit, without -race instrumentation)"
go_test -run 'TestAlloc' ./internal/stats ./internal/obs ./internal/table ./internal/deps ./internal/fd

echo "==> perf gate: B9/B12/B13/B14/B15/B16/B17 vs checked-in baselines"
./scripts/perfgate.sh

fuzz_smoke FuzzLoadSQL ./internal/sql/exec
fuzz_smoke FuzzScanSource ./internal/appscan
fuzz_smoke FuzzCSVLoad ./internal/csvio
fuzz_smoke FuzzJobRequest ./internal/serve
fuzz_smoke FuzzSnapshotRoundTrip ./internal/storage
fuzz_smoke FuzzDeltaRefine ./internal/table
fuzz_smoke FuzzDropAttrs ./internal/table
fuzz_smoke FuzzIntTable ./internal/table

echo "==> ci.sh: all green"
