#!/usr/bin/env sh
# Tier-1 gate: build, test, then hold the workspace to its own static-analysis
# bar. Everything a PR must pass locally before it ships.
#
#   ./scripts/check.sh
#
# The analyzer step runs `cqm-analyze --deny-all --format=json`, which
# promotes warn-level findings (ASSERT_DENSITY, bare-index PANIC_IN_LIB,
# float `==`, TIME_IN_LOGIC, HOT_LOOP_ALLOC) to failures and writes the
# machine-readable report to ANALYZE_REPORT.json (schema
# cqm-analyze/report/v1). Suppressions must use
# `// lint: allow(LINT_ID) -- reason` pragmas with a written reason; a
# pragma whose lint no longer fires is itself a failure (STALE_SUPPRESS),
# gated here explicitly so dead suppressions can never ride along. See
# DESIGN.md sections 6 and 11.
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cqm-analyze --deny-all (report: ANALYZE_REPORT.json)"
ANALYZE_OK=0
cargo run -q --release -p cqm-analyze -- --deny-all --format=json \
    > ANALYZE_REPORT.json || ANALYZE_OK=$?
# Belt and braces: even if the analyzer exit code regresses, a stale
# suppression in the report must fail the gate on its own.
if grep -q '"lint": "STALE_SUPPRESS"' ANALYZE_REPORT.json; then
    echo "check.sh: stale suppression pragma(s) in ANALYZE_REPORT.json" >&2
    exit 1
fi
if [ "$ANALYZE_OK" -ne 0 ]; then
    echo "check.sh: cqm-analyze found violations (see ANALYZE_REPORT.json)" >&2
    exit "$ANALYZE_OK"
fi

echo "==> cargo fmt --check (crates held rustfmt-clean)"
# Formatting is enforced crate by crate as each one is brought to zero
# drift, so a later `cargo fmt` run cannot mix reformatting into a change.
cargo fmt -p cqm-persist -p cqm-serve -p cqm-fuzzy -p cqm-math -p cqm-core \
    -p cqm-cluster -p cqm-anfis -p cqm-classify -p cqm-parallel -p cqm-bench \
    -p cqm-adapt -- --check

echo "==> cargo clippy -D warnings (crates held clippy-clean)"
# The workspace [lints.clippy] table (float_cmp, unwrap_used) is enforced
# crate by crate as each one is brought to zero findings; a crate on this
# list must stay clean, with no #[allow] added to get there.
cargo clippy -q -p cqm-fuzzy -p cqm-serve -p cqm-parallel -p cqm-persist \
    -p cqm-resilience -p cqm-classify -p cqm-math -p cqm-core -p cqm-cluster \
    -p cqm-anfis -p cqm-bench -p cqm-adapt --all-targets --no-deps -- -D warnings

echo "==> cargo test"
# The debug test profile also arms every debug_assert! domain guard in the
# numeric crates (DESIGN.md section 6).
cargo test -q --workspace

echo "==> experiment outputs (stdout of the twelve experiment binaries, release)"
# Each experiment prints its tables on stdout and its timings on stderr, so
# stdout is fixed bytes; the test compares an FNV-1a digest of each with the
# recorded value, so a training change that moves any printed number fails
# here. It is #[ignore]d in the debug leg above, where the experiments take
# minutes (crates/bench/tests/experiment_outputs.rs).
cargo test -q --release -p cqm-bench --test experiment_outputs -- --ignored

echo "==> chaos suite (fault injection & degradation)"
cargo test -q --test chaos

echo "==> recovery suite (checkpoint, journal, replay)"
cargo test -q --test recovery

echo "==> crash-recovery drill (abort mid-journal, restart, verify replay)"
cargo build -q --release --example restartable_office
CRASH_DIR="$(mktemp -d)"
trap 'rm -rf "$CRASH_DIR"' EXIT
# The run leg aborts itself after step 20 with a torn journal tail, so a
# non-zero exit here is the expected crash, not a failure.
if ./target/release/examples/restartable_office "$CRASH_DIR" run 20; then
    echo "check.sh: crash leg exited cleanly; expected an abort" >&2
    exit 1
fi
./target/release/examples/restartable_office "$CRASH_DIR" recover | tee /tmp/cqm_recover.log
grep -q "REPLAY verified=20 status=ok" /tmp/cqm_recover.log || {
    echo "check.sh: recovery replay did not verify bit-identically" >&2
    exit 1
}
grep -q "^SUMMARY " /tmp/cqm_recover.log || {
    echo "check.sh: recovery run did not finish the session" >&2
    exit 1
}

echo "==> perf baseline smoke (perfbase schema)"
# perfbase --smoke times the hot paths on small workloads, writes the baseline
# JSON, re-reads it and validates the cqm-bench/perfbase/v5 schema (see
# crates/bench/src/perf.rs). The timings are a record: no step compares them.
./target/release/perfbase --smoke --out "$CRASH_DIR/BENCH_PERFBASE.json"
test -s "$CRASH_DIR/BENCH_PERFBASE.json" || {
    echo "check.sh: perfbase did not write the baseline JSON" >&2
    exit 1
}

echo "==> serve suite (torn frames, overload, worker-count determinism)"
cargo test -q --test serve

echo "==> served-office drill (office session over TCP, bit-for-bit vs in-process)"
cargo build -q --release --example served_office
./target/release/examples/served_office | tee /tmp/cqm_served.log
grep -q "^SUMMARY .*match=ok" /tmp/cqm_served.log || {
    echo "check.sh: served answers diverged from the in-process pipeline" >&2
    exit 1
}

echo "==> chaos soak suite (exactly-once under scheduled network chaos)"
cargo test -q --test chaos_net

echo "==> chaos soak smoke (BENCH_PR7.json schema + every-request-accounted gate)"
# chaosbench --smoke drives a live server through the seeded ChaosProxy with
# retrying clients, writes the baseline JSON, re-reads it, validates the
# cqm-bench/chaosbase/v1 schema and applies the exactly-once gate (every
# request delivered or typed-failed, zero duplicate executions); see
# crates/bench/src/chaosbench.rs.
./target/release/chaosbench --smoke --out "$CRASH_DIR/BENCH_PR7.json"
test -s "$CRASH_DIR/BENCH_PR7.json" || {
    echo "check.sh: chaosbench did not write the baseline JSON" >&2
    exit 1
}

echo "==> fleet suite (tenancy, bulkheads, hot swap, warm-load faults)"
cargo test -q --test fleet

echo "==> multi-tenant soak smoke (BENCH_PR8.json schema + isolation gate)"
# fleetbench --smoke drives >= 8 tenants behind a 4-slot registry LRU through
# the seeded ChaosProxy *and* a seeded checkpoint disk-fault injector, performs
# >= 3 live hot swaps mid-traffic, writes the baseline JSON, re-reads it,
# validates the cqm-bench/fleetbase/v1 schema and applies the isolation gate
# (zero drops, zero cross-tenant leaks, zero mismatched answers); see
# crates/bench/src/fleetbench.rs.
./target/release/fleetbench --smoke --out "$CRASH_DIR/BENCH_PR8.json"
test -s "$CRASH_DIR/BENCH_PR8.json" || {
    echo "check.sh: fleetbench did not write the baseline JSON" >&2
    exit 1
}

echo "==> adaptation suite (stationary no-op soak + drift e2e)"
# The soak is the provable-no-op half of the PR 10 contract: a drift-free
# labeled stream must trigger zero drift events, zero retrains, zero swaps,
# and leave the served answers bit-identical (see tests/adapt.rs).
cargo test -q --test adapt

echo "==> adaptive-office drill (mid-run context shift over a live server)"
cargo build -q --release --example adaptive_office
./target/release/examples/adaptive_office | tee /tmp/cqm_adaptive.log
grep -q "^SUMMARY .*recovered=ok" /tmp/cqm_adaptive.log || {
    echo "check.sh: the adaptive office did not recover from the shift" >&2
    exit 1
}

echo "==> drift-recovery smoke (BENCH_PR10.json schema + recovery/zero-drop gate)"
# adaptbench --smoke serves a stale model under live client traffic with a
# seeded disk-fault plan beneath the checkpoint store, holds the detector
# silent through a stationary phase, forces a rollback via the fault
# schedule, then drives a context shift to a validated live swap; the gate
# requires zero false alarms, >= 1 promotion, >= 1 exercised rollback,
# adapted holdout RMSE beating the stale model and within the documented
# bound of a from-scratch retrain, and zero dropped requests; see
# crates/bench/src/adaptbench.rs.
./target/release/adaptbench --smoke --out "$CRASH_DIR/BENCH_PR10.json"
test -s "$CRASH_DIR/BENCH_PR10.json" || {
    echo "check.sh: adaptbench did not write the baseline JSON" >&2
    exit 1
}

echo "==> benchmark smoke (perfbench: every workload, traced, answers checked)"
# perfbench is the repository's benchmark (BENCHMARK.json), a cargo package of
# its own that run.py builds into .bench_build before running it. The traced
# mode replays every layer API perfbench calls and checks every served answer
# bit for bit, so a short run per workload catches a build break, an API drift
# or a wrong answer; any of them exits non-zero and fails the gate.
for workload in single_closed batch_closed drift_adapt; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 1 > /dev/null
done

echo "==> bench binary arg hygiene (--help exits 0; malformed flags exit 2 and write nothing)"
# Every gate binary parses its command line through crates/bench/src/harness.rs
# before any work starts. Each rejected invocation runs in an empty directory,
# which must still be empty afterwards (the default --out path is relative).
HYGIENE_DIR="$CRASH_DIR/hygiene"
BENCH_BIN="$PWD/target/release"
mkdir -p "$HYGIENE_DIR"
expect_exit() {
    want=$1
    bench=$2
    shift 2
    got=0
    (cd "$HYGIENE_DIR" && "$BENCH_BIN/$bench" "$@") > /dev/null 2>&1 || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "check.sh: $bench $* exited $got, expected $want" >&2
        exit 1
    fi
}
for bench in perfbase chaosbench fleetbench adaptbench; do
    expect_exit 0 "$bench" --help
    expect_exit 2 "$bench" --definitely-not-a-flag
    expect_exit 2 "$bench" --out --smoke
done
expect_exit 2 perfbase --smoke --section
# Sections retired with schema v4 are unknown names, not silent no-ops.
expect_exit 2 perfbase --smoke --section eval_batch
expect_exit 2 perfbase --smoke --section eval_batch_blocked
for count in --clients --requests; do
    expect_exit 2 chaosbench --smoke "$count" abc
    expect_exit 2 chaosbench --smoke "$count" 0
done
for count in --tenants --requests; do
    expect_exit 2 fleetbench --smoke "$count" abc
    expect_exit 2 fleetbench --smoke "$count" 0
done
expect_exit 2 adaptbench --smoke --stationary abc
expect_exit 2 adaptbench --smoke --stationary 0
for bench in chaosbench fleetbench adaptbench; do
    expect_exit 2 "$bench" --smoke --seed abc
done
if [ -n "$(ls -A "$HYGIENE_DIR")" ]; then
    echo "check.sh: a rejected bench invocation wrote files: $(ls -A "$HYGIENE_DIR")" >&2
    exit 1
fi

echo "check.sh: all gates passed"
