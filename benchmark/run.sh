#!/usr/bin/env bash
# Builds the benchmark in release mode and runs every workload, untraced then
# traced, once per seed. Results go to benchmark/out/results.json: a first
# line describing the machine, then one JSON object per workload and run,
# the format `ssr-benchmark compare` reads.
#
#   benchmark/run.sh                 # seeds 42 and 7
#   SEEDS="1 2 3" benchmark/run.sh
set -euo pipefail
cd "$(dirname "$0")/.."

seeds="${SEEDS:-42 7}"
cargo build --release --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ssr-benchmark"

mkdir -p benchmark/out
out=benchmark/out/results.json
cpu="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)"
printf '{"machine": "%s", "cpu": "%s", "nproc": %s, "date": "%s", "seeds": "%s"}\n' \
    "$(uname -srm)" "${cpu:-unknown}" "$(nproc)" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$seeds" > "$out"

status=0
for seed in $seeds; do
    for trace in 0 1; do
        "$bin" --all --seed "$seed" --trace "$trace" | tee -a "$out" || status=1
    done
done
echo "results: $out" >&2
exit "$status"
