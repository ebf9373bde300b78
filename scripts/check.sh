#!/usr/bin/env sh
# Full local quality gate for the tecopt workspace:
#   1. release build of every crate,
#   2. rustfmt in check mode (the tree is formatted; diffs fail the gate),
#   3. clippy across all targets with warnings promoted to errors
#      (every crate warns on unwrap()/expect() in non-test code;
#      clippy.toml exempts test code),
#   4. the API docs of every crate (cargo doc --no-deps) with rustdoc
#      warnings denied, so a stale or private intra-doc link fails the
#      gate instead of rotting,
#   5. the workspace-native static analyzer (tecopt-xtask lint): NaN-unsafe
#      comparisons, panicking paths in solver kernels, std::thread outside
#      tecopt::parallel, unsafe code, truncating float casts, todo markers,
#      and the flow-aware concurrency rules (lock-order inversion cycles,
#      guards across blocking calls, swallowed Results, uncancelled sweep
#      loops, unpaced service-layer retry loops); any finding fails the
#      step, and a `tecopt:allow` marker with a reason is the one way to
#      accept one (rule catalog + suppression audit table in DESIGN.md
#      §11, flow machinery in §16),
#   6. compile of every criterion bench target (bench code must never rot),
#   7. the complete test suite, including the fault-injection error-path
#      coverage (tests/error_paths.rs), the property-based robustness
#      sweeps (tests/robustness.rs), and the cross-backend/parallel
#      determinism suite (tests/backend_equivalence.rs),
#   8. a single-threaded re-run of the test suite, so any accidental
#      dependence of the parallel sweeps on test-runner concurrency shows
#      up as a divergence between the two passes,
#   9. the paper's executable theory (the theory binary: Lemmas 1-3 and
#      Theorems 1-3 on the deployed Alpha system), regenerating the
#      committed results/theory.txt; the binary exits 1 on any refuted
#      claim; then the multi-pin example (EXPERIMENTS X2), regenerating
#      the committed results/multi_pin.txt, and the fig6_hkl binary
#      (h_kl(i) through CoolingSystem's per-call solver handles at 37
#      currents), regenerating the committed results/fig6_hkl.txt, so a
#      drift in either file's figures shows in git diff,
#  10. the chaos pass (tests/chaos.rs): fault injection against the
#      supervised sweep runtime (cancellation, deadlines, worker panics,
#      checkpoint kill/resume), single-threaded and including the
#      `#[ignore]`d heavyweight 32x32 kill-at-every-probe-boundary sweep
#      that the ordinary test passes skip,
#  11. the serve chaos pass (tests/serve_chaos.rs): torn frames, client
#      deaths mid-request, overload shedding, deadline storms, panic
#      containment, and graceful drain against a live tecopt-serve
#      server, single-threaded and including the `#[ignore]`d 8-client
#      mixed-chaos soak,
#  12. the transient chaos pass (tests/transient_chaos.rs): hostile and
#      panicking controllers, mid-trace power spikes, NaN samples, and
#      kill-at-every-step checkpoint resume against the safety-enveloped
#      transient runtime (DESIGN.md §14), single-threaded and including
#      the `#[ignore]`d playback-resume chains,
#  13. the PR-6 acceptance benchmark (bench_pr6): factorization-reuse
#      speedup ≥ 5x and safety-envelope overhead ≤ 2%, regenerating the
#      committed BENCH_PR6.json,
#  14. the rank-k update equivalence suite (tests/update_equivalence.rs):
#      property-based agreement (≤ 1e-8) between SMW-updated and freshly
#      factored solves, the degraded-condition refactorization fallback,
#      and cancellation of a supervised fast deployment (DESIGN.md §15),
#  15. the PR-7 acceptance benchmark (bench_pr7): greedy deployment with
#      FactorStrategy::RankKUpdate ≥ 5x over the refactor-per-probe dense
#      baseline at 32x32 with peak drift ≤ 1e-8 vs fresh factorizations,
#      regenerating the committed BENCH_PR7.json,
#  16. the fleet chaos pass (tests/fleet_chaos.rs): shard kills and
#      restarts mid-sweep under load, failover, health-machine recovery,
#      cache replication (including poisoned replicas), bit-identical
#      checkpointed sweep handoff, and the wire-level ping/extension-frame
#      forward-compatibility contract (DESIGN.md §17), single-threaded and
#      including the `#[ignore]`d kill-every-shard soak,
#  17. the PR-9 acceptance benchmark (bench_pr9): fleet failover p99 ≤ 5x
#      the healthy p99 and fixed-floor hedging p99 ≤ 0.75x unhedged
#      against a 20x straggler, regenerating the committed BENCH_PR9.json,
#  18. the explorer chaos pass (tests/explore_chaos.rs): kill-at-every-
#      ledger-boundary resume with zero duplicated evaluations and a
#      bit-identical Pareto front, typed quarantine of panicking/NaN/
#      envelope-tripping candidates across kill cycles, torn-tail and
#      full-disk regressions at every fixed persist site, and the keyed
#      Explore fleet-failover handoff (DESIGN.md §18), single-threaded
#      and including the `#[ignore]`d 10k-candidate kill/resume soak,
#  19. the PR-10 acceptance benchmark (bench_pr10): killed-at-half +
#      resume wall time ≤ 1.02x the uninterrupted ledger sweep, zero
#      duplicated evaluations, and parallel speedup over a serial loop
#      ≥ min(0.85 x workers, 8) on a 10k-candidate grid, regenerating
#      the committed BENCH_PR10.json,
#  20. the benchmark's own unit tests (perfbench/: percentile and span
#      arithmetic, metric names, the result-line schema in run.py),
#  21. one-second smoke runs of all four benchmark workloads: table1 (the
#      paper's Table-I pipeline on all eleven chips), explore (a design
#      sweep whose candidates, with different TEC parameters, share one
#      package order), transient (a playback on the Alpha deployment) and
#      serve (requests over TCP loopback), each of which must report
#      "correct": true. Every workload sets its placements up through
#      with_tiles, which splices them into the package's passive network.
# Run from the repository root: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo run -p tecopt-xtask -- lint"
cargo run -q -p tecopt-xtask -- lint

echo "==> cargo bench --no-run"
cargo bench --no-run

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q --workspace -- --test-threads=1"
cargo test -q --workspace -- --test-threads=1

echo "==> cargo run --release -p tecopt-bench --bin theory > results/theory.txt"
cargo run --release -q -p tecopt-bench --bin theory > results/theory.txt

echo "==> cargo run --release --example multi_pin > results/multi_pin.txt"
cargo run --release -q --example multi_pin > results/multi_pin.txt

echo "==> cargo run --release -p tecopt-bench --bin fig6_hkl > results/fig6_hkl.txt"
cargo run --release -q -p tecopt-bench --bin fig6_hkl > results/fig6_hkl.txt

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

for workload in table1 explore transient serve; do
    echo "==> python3 perfbench/run.py --workload $workload --seed 1 --seconds 1 --trace 0"
    smoke=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    echo "$smoke"
    case "$smoke" in
    *'"correct": true'*) ;;
    *)
        echo "perfbench $workload smoke run did not report correct output" >&2
        exit 1
        ;;
    esac
done

echo "==> all checks passed"
