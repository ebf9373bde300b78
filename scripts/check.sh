#!/usr/bin/env sh
# Full local quality gate for the tecopt workspace:
#   1. release build of every crate,
#   2. rustfmt in check mode (the tree is formatted; diffs fail the gate),
#   3. clippy across all targets with warnings promoted to errors
#      (every crate warns on unwrap()/expect() in non-test code;
#      clippy.toml exempts test code),
#   4. the workspace-native static analyzer (tecopt-xtask lint): NaN-unsafe
#      comparisons, panicking paths in solver kernels, std::thread outside
#      tecopt::parallel, unsafe code, truncating float casts, todo markers,
#      and the flow-aware concurrency rules (lock-order inversion cycles,
#      guards across blocking calls, swallowed Results, uncancelled sweep
#      loops, unpaced service-layer retry loops), checked against the
#      committed findings baseline
#      (rule catalog + suppression audit table in DESIGN.md §11, flow
#      machinery in §16), followed by the cache benchmark, which fails
#      unless a cold full-workspace lint is under 1 s and a warm
#      (incremental-cache) one is at least 5x faster,
#   5. compile of every criterion bench target (bench code must never rot),
#   6. the complete test suite, including the fault-injection error-path
#      coverage (tests/error_paths.rs), the property-based robustness
#      sweeps (tests/robustness.rs), and the cross-backend/parallel
#      determinism suite (tests/backend_equivalence.rs),
#   7. a single-threaded re-run of the test suite, so any accidental
#      dependence of the parallel sweeps on test-runner concurrency shows
#      up as a divergence between the two passes,
#   8. the chaos pass (tests/chaos.rs): fault injection against the
#      supervised sweep runtime (cancellation, deadlines, worker panics,
#      checkpoint kill/resume), single-threaded and including the
#      `#[ignore]`d heavyweight 32x32 kill-at-every-probe-boundary sweep
#      that the ordinary test passes skip,
#   9. the serve chaos pass (tests/serve_chaos.rs): torn frames, client
#      deaths mid-request, overload shedding, deadline storms, panic
#      containment, and graceful drain against a live tecopt-serve
#      server, single-threaded and including the `#[ignore]`d 8-client
#      mixed-chaos soak,
#  10. the transient chaos pass (tests/transient_chaos.rs): hostile and
#      panicking controllers, mid-trace power spikes, NaN samples, and
#      kill-at-every-step checkpoint resume against the safety-enveloped
#      transient runtime (DESIGN.md §14), single-threaded and including
#      the `#[ignore]`d playback-resume chains,
#  11. the PR-6 acceptance benchmark (bench_pr6): factorization-reuse
#      speedup ≥ 5x and safety-envelope overhead ≤ 2%, regenerating the
#      committed BENCH_PR6.json,
#  12. the rank-k update equivalence suite (tests/update_equivalence.rs):
#      property-based agreement (≤ 1e-8) between SMW-updated and freshly
#      factored solves, the degraded-condition refactorization fallback,
#      and cancellation of a supervised fast deployment (DESIGN.md §15),
#  13. the PR-7 acceptance benchmark (bench_pr7): greedy deployment with
#      FactorStrategy::RankKUpdate ≥ 5x over the refactor-per-probe dense
#      baseline at 32x32 with peak drift ≤ 1e-8 vs fresh factorizations,
#      regenerating the committed BENCH_PR7.json,
#  14. the fleet chaos pass (tests/fleet_chaos.rs): shard kills and
#      restarts mid-sweep under load, failover, health-machine recovery,
#      cache replication (including poisoned replicas), bit-identical
#      checkpointed sweep handoff, and the wire-level ping/extension-frame
#      forward-compatibility contract (DESIGN.md §17), single-threaded and
#      including the `#[ignore]`d kill-every-shard soak,
#  15. the PR-9 acceptance benchmark (bench_pr9): fleet failover p99 ≤ 5x
#      the healthy p99 and fixed-floor hedging p99 ≤ 0.75x unhedged
#      against a 20x straggler, regenerating the committed BENCH_PR9.json,
#  16. the explorer chaos pass (tests/explore_chaos.rs): kill-at-every-
#      ledger-boundary resume with zero duplicated evaluations and a
#      bit-identical Pareto front, typed quarantine of panicking/NaN/
#      envelope-tripping candidates across kill cycles, torn-tail and
#      full-disk regressions at every fixed persist site, and the keyed
#      Explore fleet-failover handoff (DESIGN.md §18), single-threaded
#      and including the `#[ignore]`d 10k-candidate kill/resume soak,
#  17. the PR-10 acceptance benchmark (bench_pr10): killed-at-half +
#      resume wall time ≤ 1.02x the uninterrupted ledger sweep, zero
#      duplicated evaluations, and parallel speedup over a serial loop
#      ≥ min(0.85 x workers, 8) on a 10k-candidate grid, regenerating
#      the committed BENCH_PR10.json,
#  18. the benchmark's own unit tests (perfbench/: percentile and span
#      arithmetic, metric names, the result-line schema in run.py),
#  19. a one-second smoke run of the benchmark's table1 workload (the
#      paper's Table-I pipeline on all eleven chips), which must report
#      "correct": true.
# Run from the repository root: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p tecopt-xtask -- lint --baseline lint-baseline.txt"
cargo run -q -p tecopt-xtask -- lint --baseline lint-baseline.txt

echo "==> cargo run --release -p tecopt-xtask -- bench-cache --enforce"
cargo run --release -q -p tecopt-xtask -- bench-cache --enforce

echo "==> cargo bench --no-run"
cargo bench --no-run

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q --workspace -- --test-threads=1"
cargo test -q --workspace -- --test-threads=1

echo "==> cargo test -q --test chaos -- --test-threads=1 --include-ignored"
cargo test -q --test chaos -- --test-threads=1 --include-ignored

echo "==> cargo test -q --test serve_chaos -- --test-threads=1 --include-ignored"
cargo test -q --test serve_chaos -- --test-threads=1 --include-ignored

echo "==> cargo test -q --test transient_chaos -- --test-threads=1 --include-ignored"
cargo test -q --test transient_chaos -- --test-threads=1 --include-ignored

echo "==> cargo run --release -p tecopt-bench --bin bench_pr6 > BENCH_PR6.json"
cargo run --release -q -p tecopt-bench --bin bench_pr6 > BENCH_PR6.json

echo "==> cargo test -q --test update_equivalence"
cargo test -q --test update_equivalence

echo "==> cargo run --release -p tecopt-bench --bin bench_pr7 > BENCH_PR7.json"
cargo run --release -q -p tecopt-bench --bin bench_pr7 > BENCH_PR7.json

echo "==> cargo test -q --test fleet_chaos -- --test-threads=1 --include-ignored"
cargo test -q --test fleet_chaos -- --test-threads=1 --include-ignored

echo "==> cargo run --release -p tecopt-bench --bin bench_pr9 > BENCH_PR9.json"
cargo run --release -q -p tecopt-bench --bin bench_pr9 > BENCH_PR9.json

echo "==> cargo test -q --test explore_chaos -- --test-threads=1 --include-ignored"
cargo test -q --test explore_chaos -- --test-threads=1 --include-ignored

echo "==> cargo run --release -p tecopt-bench --bin bench_pr10 > BENCH_PR10.json"
cargo run --release -q -p tecopt-bench --bin bench_pr10 > BENCH_PR10.json

echo "==> cargo test -q --offline --manifest-path perfbench/Cargo.toml"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> python3 -m unittest discover -s perfbench"
python3 -m unittest discover -s perfbench

echo "==> python3 perfbench/run.py --workload table1 --seed 1 --seconds 1 --trace 0"
smoke=$(python3 perfbench/run.py --workload table1 --seed 1 --seconds 1 --trace 0 | tail -n 1)
echo "$smoke"
case "$smoke" in
*'"correct": true'*) ;;
*)
    echo "perfbench table1 smoke run did not report correct output" >&2
    exit 1
    ;;
esac

echo "==> all checks passed"
