#!/bin/sh
# Builds the benchmark and runs it:
#   sh perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# --trace 0 runs the untraced binary (end-to-end metrics); --trace 1 the
# traced one (per-layer metrics), which links the counting allocator.
# The run is pinned to the last CPU: the workloads run on one thread, and
# without pinning the threads rb-mc spawns per BFS level wake up on the
# other CPU, which made mc_sweep's throughput swing by 2x between runs.
# One malloc arena: worker threads otherwise each touch an arena of their
# own, which made the small workloads' peak RSS jump by 1 MiB between runs.
set -eu
export MALLOC_ARENA_MAX=1
here=$(dirname "$0")
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release"
trace=0
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ]; then trace=$arg; fi
    prev=$arg
done
exe="$bin/perfbench"
if [ "$trace" = 1 ]; then
    exe="$bin/perfbench-traced"
fi
if command -v taskset >/dev/null 2>&1 && command -v nproc >/dev/null 2>&1; then
    exec taskset -c "$(($(nproc) - 1))" "$exe" "$@"
fi
echo "perfbench: taskset not found, running unpinned" >&2
exec "$exe" "$@"
