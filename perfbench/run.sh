#!/usr/bin/env bash
# Builds the benchmark, then runs it pinned to one CPU with glibc malloc
# limited to one arena (README.md says why). Arguments go to the
# benchmark: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
set -euo pipefail
manifest="$(dirname "$0")/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$manifest"
pin=()
if command -v taskset >/dev/null; then
    # The last CPU this process may run on.
    cpu=$(awk '/^Cpus_allowed_list/ { n = split($2, c, "[-,]"); print c[n] }' /proc/self/status)
    pin=(taskset -c "$cpu")
fi
exec env MALLOC_ARENA_MAX=1 ${pin[@]+"${pin[@]}"} \
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
