#!/usr/bin/env bash
# Full local gate: release build, workspace tests, clippy (deny warnings),
# and formatting. Run before every push; CI runs the same sequence.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> checking no build artifacts are git-tracked"
if git ls-files -- 'target/' '*/target/' | grep -q .; then
    echo "error: build artifacts under target/ are git-tracked:" >&2
    git ls-files -- 'target/' '*/target/' | head >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test (workspace)"
cargo test -q --offline --workspace

echo "==> exp_observability --smoke (instrumentation overhead gate)"
cargo build --release --offline -p gis-bench --bin exp_observability
./target/release/exp_observability --smoke

echo "==> exp_tcp_loopback --smoke (TCP wire gate: framed GRIP over 127.0.0.1)"
cargo build --release --offline -p gis-bench --bin exp_tcp_loopback
./target/release/exp_tcp_loopback --smoke

echo "==> exp_tcp_saturation --smoke (multiplexing gate: completeness, wire tax, WAN speedup)"
cargo build --release --offline -p gis-bench --bin exp_tcp_saturation
./target/release/exp_tcp_saturation --smoke

echo "==> exp_persistence --smoke (durability gate: kill matrix, crash recovery, restart budget)"
cargo build --release --offline -p gis-bench --bin exp_persistence
./target/release/exp_persistence --smoke

echo "==> exp_c10k --smoke (reactor gate: held connections vs transport threads)"
# The binary raises RLIMIT_NOFILE to the hard cap itself and skips with
# a warning (exit 0) on runners whose cap cannot hold the smallest row.
cargo build --release --offline -p gis-bench --bin exp_c10k
./target/release/exp_c10k --smoke

echo "==> exp_federation --smoke (federation gate: local reads, staleness, chaining speedup, bulk ingest)"
cargo build --release --offline -p gis-bench --bin exp_federation
./target/release/exp_federation --smoke

echo "==> exp_trust_matrix --smoke (wire security gate: §7 tiers, ACL tax, auth-fed breaker)"
cargo build --release --offline -p gis-bench --bin exp_trust_matrix
./target/release/exp_trust_matrix --smoke

echo "==> deterministic exp_* outputs (behavioural contract: byte-identical to results/)"
cargo build --release --offline -p gis-bench --bins
matched=0
for f in results/exp_*.txt; do
    b=$(basename "$f" .txt)
    case "$b" in
        # Wall-clock measurements: their gates are the --smoke stages.
        exp_live_throughput|exp_e13_degraded_mode|exp_observability|exp_tcp_loopback|exp_tcp_saturation|exp_persistence|exp_c10k|exp_federation) continue ;;
    esac
    if ! ./target/release/"$b" | diff -u "$f" -; then
        echo "error: $b output differs from $f" >&2
        exit 1
    fi
    matched=$((matched + 1))
done
echo "$matched deterministic outputs identical"

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "All checks passed."
