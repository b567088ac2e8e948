#!/usr/bin/env bash
# Tier-1 verify plus bench-rot protection, exactly as CI runs it.
#
#   ./scripts/ci.sh
#
# All dependencies are vendored (vendor/{rand,proptest}), so the build
# works fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# The test step runs every suite once, the gates below included (in
# the test profile, opt-level 2 with debug assertions on):
#
# * The rr-milp property suites are the revised-kernel ↔ tableau-oracle
#   agreement gate (the dense tableau is the one oracle: under
#   Kernel::DenseTableau every LP, each branch-and-bound node included,
#   runs on it), plus the sparse LU's residual checks. The vendored
#   proptest draws a deterministic, name-seeded stream (see
#   vendor/proptest), so this is a fixed-seed run by construction — a
#   failure reproduces exactly on re-run.
# * tests/search_gate.rs is the branch-and-bound gate: one golden table
#   pins the trajectory of the single-threaded production search
#   (objective, nodes, pivots, warm/cold split, incumbent trace) on the
#   ring MILP and MAX_THR for bench20, bench40 and s27, repeat solves
#   replay the whole stats struct bit for bit, and the
#   Kernel::DenseTableau oracle request replays its own trajectory on
#   the ring and bench20. Alongside it: the production search and the
#   tableau oracle prove identical optima on the Table-1 instances, on
#   four random graphs that exercise the round-off verdicts of the warm
#   dual simplex, on 600 solves over 100 random graphs and on two rows
#   of the milp_scaling family (bench40's sparse-LU fill bounded too);
#   mirrored/free integer fixtures solve warm and match the tableau
#   oracle, the pseudo-cost search-strength facts hold, truncation, gap
#   termination and dual bounds (lost nodes included) reach the
#   reports, and source-level checks keep deleted identifiers and
#   threads out of the code. Fixed seeds and node caps (no wall
#   clocks), so failures reproduce exactly.
# * tests/fault_injection.rs is the self-healing gate: fixed-seed
#   fault-injected runs must prove the same optima as their clean twins
#   on every Table-1 figure and bench instance, with the recovery
#   counters showing every failure class was observed and every ladder
#   rung fired, rung 6 (the node on the tableau) included; faulted pure
#   LPs (Θ_lp, a MILP relaxation) heal to their clean optima. The
#   FaultPlan is seeded (one deterministic SplitMix64 stream per site),
#   so failures replay exactly.
echo "==> cargo test -q"
cargo test -q --offline

# Rustdoc must build without warnings, so a deleted item cannot leave a
# broken intra-doc link behind. The vendored crates are not ours to lint.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --exclude proptest --exclude rand

# The reduced Table-2 sweep: all 18 ISCAS89 profiles scaled to 20 edges
# under a deterministic per-MILP node budget (the generous wall clock
# never binds in practice). --require-proven names every circuit whose
# whole sweep is proven within gap at seed 2009, so losing any single
# proof fails the run and prints every circuit that lost one. The other
# two (s953, s713) are unproven at this budget; a circuit that fails
# outright (an evaluation or solver error) fails the run too. The sweep
# prints each circuit's nodes, pivots and wall time.
echo "==> table2 --max-edges 20 (reduced Table-2 per-circuit proof gate)"
cargo run --release -q -p rr-bench --bin table2 --offline -- \
  --max-edges 20 --max-nodes 20000 --time-limit 600 \
  --require-proven s208,s27,s444,s838,s386,s400,s526,s382,s420,s832,s1488,s510,s344,s1494,s820,s641

# The milp_scaling bench, the workspace's only bench target: the revised
# kernel and the tableau oracle must agree on every completed instance,
# and the revised kernel must stay at least 3.3x faster (MIN_SPEEDUP) on
# the largest MAX_THR instance (60 edges). It panics on either failure. A few
# seconds once built, most of it the oracle's cold tableau nodes on
# that instance.
echo "==> cargo bench milp_scaling (kernel speedup contract)"
cargo bench --offline -p rr-bench --bench milp_scaling

# The repo benchmark (perfbench/, its own cargo workspace) calls the
# crates' public API; building it here makes an API change that breaks
# it fail CI instead of the next measurement. Its target directory sits
# under target/, which the workflow cache already covers.
echo "==> cargo build perfbench (benchmark must build)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "CI OK"
