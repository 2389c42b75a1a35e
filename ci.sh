#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), full test suite.
# Run from the repo root. Pass --release to also build release binaries.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Dead-knob gate: every knob constant registered in the config registry
# must be read by some source file other than config.rs itself. A knob no
# code reads is accepted by SET and silently ignored.
echo "==> dead-knob gate"
dead_knobs=0
for name in $(grep -oE '^    [A-Z][A-Z0-9_]*: [A-Za-z0-9]+ = "' crates/common/src/config.rs | awk -F: '{gsub(/ /, "", $1); print $1}'); do
    if ! grep -rlw --include='*.rs' -e "$name" crates/*/src src | grep -qv '^crates/common/src/config.rs$'; then
        echo "dead knob: $name is registered in crates/common/src/config.rs but never read"
        dead_knobs=1
    fi
done
[[ $dead_knobs == 0 ]]

# Doc-knob gate: every `hive.*` / `dfs.*` / `mapred.*` / `mapreduce.*` key
# that README.md or DESIGN.md names in backticks (alone, or as `key=value`
# or `SET key=...`) must be registered in config.rs, so docs cannot keep
# describing a deleted knob.
echo "==> doc-knob gate"
registered=$(grep -oE '^    [A-Z][A-Z0-9_]*: [A-Za-z0-9]+ = "[^"]+"' crates/common/src/config.rs | sed -E 's/.*= "([^"]+)"$/\1/')
doc_knobs=0
for key in $(grep -ohE '`[^`]+`' README.md DESIGN.md \
    | grep -oE '[` ](hive|dfs|mapred|mapreduce)(\.[a-z0-9_]+)+[`= ;]' \
    | sed -E 's/^.//; s/.$//' | sort -u); do
    if ! grep -qxF -e "$key" <<<"$registered"; then
        echo "doc knob: $key is named in README.md or DESIGN.md but not registered in crates/common/src/config.rs"
        doc_knobs=1
    fi
done
[[ $doc_knobs == 0 ]]

echo "==> cargo test"
cargo test -q --workspace --offline

# Chaos gate: end-to-end queries under randomized-but-replayable DFS fault
# plans (the proptest shim seeds from the test name, so this is a fixed
# schedule). Part of the workspace run above; repeated here so a chaos
# regression is called out by name.
echo "==> chaos gate (deterministic fault injection)"
cargo test -q -p hive-core --test chaos --offline

# ACID chaos gate: kill the writer and the compactor at every registered
# crash point, lose rename acks, tear writes, randomize write-fault plans —
# readers must see the old or the new snapshot (never a hybrid) and a
# restarted writer must recover to a clean, writable table.
echo "==> ACID chaos gate (kill-anywhere crash points)"
cargo test -q -p hive-core --test acid --test acid_chaos --offline

# Observability gate: metrics-registry determinism across worker-thread
# counts, EXPLAIN ANALYZE goldens, knob-registry errors, README knob table.
echo "==> metrics determinism gate"
cargo test -q --test metrics --offline

# End-to-end --metrics-json stability: the same statement stream through the
# real CLI binary must produce byte-identical snapshots at 1 and 8 worker
# threads under the deterministic clock, and the snapshot must match the
# checked-in schema-conformant example under results/.
echo "==> hive-cli --metrics-json gate (1 vs 8 worker threads)"
run_cli() {
    cargo run -q --bin hive-cli --offline -- --demo --metrics-json "$2" >/dev/null <<SQL
SET hive.exec.sim.deterministic.cpu=true;
SET hive.exec.worker.threads=$1;
SELECT cities.name, COUNT(*) AS n, AVG(trips.fare) AS avg_fare
FROM trips JOIN cities ON (trips.city_id = cities.city_id)
GROUP BY cities.name ORDER BY cities.name;
SQL
}
run_cli 1 target/metrics-1.json
run_cli 8 target/metrics-8.json
diff target/metrics-1.json target/metrics-8.json
diff target/metrics-1.json results/metrics-snapshot.json

# Join-bench gate: a tiny-scale run of the map-join benchmark must plan the
# vectorized operator, emit schema-valid BENCH_joins.json, and show the
# vectorized join's measured CPU below row mode's (--check exits non-zero
# otherwise).
echo "==> vectorized map-join bench gate"
HIVE_BENCH_SF=0.02 cargo run -q --release -p hive-bench --bin bench_joins --offline -- --check

# Vectorized-execution gate: the scan-heavy filter + group-by aggregation
# must plan batch-native, emit schema-valid BENCH_vector.json, and beat the
# row-mode pipeline's measured CPU by at least 1.3x (--check exits
# non-zero otherwise; the paper's target is 2x and typical runs are well
# above it).
echo "==> batch-native execution bench gate"
HIVE_BENCH_SF=0.02 cargo run -q --release -p hive-bench --bin bench_vector --offline -- --check

# Cache-bench gate: the same scan against one long-lived server must emit
# schema-valid BENCH_cache.json and show the warm-cache run's measured CPU
# below the cold run's (--check exits non-zero otherwise).
echo "==> server cache bench gate"
HIVE_BENCH_SF=0.02 cargo run -q --release -p hive-bench --bin bench_cache --offline -- --check

# Workload-management gate: under a low-priority etl flood, the
# high-priority interactive pool's p99 latency (queue wait + deterministic
# sim time) must stay within 1.5x of its unloaded p99, and at least one
# preemption with its re-run must be observed (--check exits non-zero
# otherwise). Emits schema-valid BENCH_wm.json.
echo "==> workload management bench gate"
HIVE_BENCH_SF=0.02 cargo run -q --release -p hive-bench --bin bench_wm --offline -- --check

# ACID gate: merge-on-read must actually read deltas and mask deletes with
# identical accounting in batch-native and row mode, SARG index skipping
# must stay active under the overlay, the vectorized merge must beat the
# row-mode merge by at least 1.3x, the merged and post-compaction answers
# must be identical, and a major compaction must bring scan time back
# within 10% of the pre-churn baseline (--check exits non-zero otherwise).
# Emits schema-valid BENCH_acid.json.
echo "==> ACID merge-on-read bench gate"
HIVE_BENCH_SF=0.02 cargo run -q --release -p hive-bench --bin bench_acid --offline -- --check

# Data-skipping gate: on a selective point-plus-range lookup, bloom
# filters plus a replica sorted on the range column must cut bytes read by
# at least 1.5x versus stats-only min/max pruning, with at least one
# bloom-pruned row group and identical answers across all three skipping
# regimes (--check exits non-zero otherwise). Emits schema-valid
# BENCH_skip.json.
echo "==> data skipping bench gate"
HIVE_BENCH_SF=0.02 cargo run -q --release -p hive-bench --bin bench_skip --offline -- --check

# Repository benchmark self-tests: hivebench is its own Cargo workspace
# (path dependencies on crates/*), so the workspace run above never builds
# it. Its tests check the statistics helpers (percentiles, geomean, drift
# windows, span self time) and that every workload's engine answers agree
# with its pure-Rust oracle at tiny scale.
echo "==> hivebench self-tests (statistics, oracle-vs-engine agreement)"
cargo test -q --release --offline --manifest-path hivebench/Cargo.toml

if [[ "${1:-}" == "--release" ]]; then
    echo "==> cargo build --release"
    cargo build --release --workspace --offline
fi

echo "==> CI green"
