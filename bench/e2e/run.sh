#!/usr/bin/env bash
# Builds bench_e2e from source (standalone CMake project over ../../src) and
# runs it on min(4, nproc) threads.
#
#   bench/e2e/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#       one workload, one process; the last stdout line is the JSON result.
#   bench/e2e/run.sh [--seed N] [--seconds S]
#       every workload, timed then traced, each in its own process.
#   bench/e2e/run.sh --self-test
#       every workload with one checked value corrupted; passes only if each
#       run fails its checks.
#
# Build tree and results live in .bench_build/e2e/ at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
out="$build/results"
workloads=(landau_1d1v advect_uniform_d3 advect_stretched_d5 build_table3)

ncpu="$(nproc)"
threads=$(( ncpu < 4 ? ncpu : 4 ))

mkdir -p "$out"
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >"$build/configure.log" 2>&1 \
  || { tail -n 20 "$build/configure.log" >&2; echo "run.sh: configure failed" >&2; exit 1; }
cmake --build "$build" --target bench_e2e -j "$threads" >"$build/build.log" 2>&1 \
  || { tail -n 50 "$build/build.log" >&2; echo "run.sh: build failed" >&2; exit 1; }

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export OMP_NUM_THREADS="$threads"
bench=("$build/bench_e2e" --out "$out" --commit "$commit")

single=0
self_test=0
for arg in "$@"; do
  [[ $arg == --workload ]] && single=1
  [[ $arg == --self-test ]] && self_test=1
done
if [[ $single -eq 1 ]]; then
  exec "${bench[@]}" "$@"
fi

status=0
for w in "${workloads[@]}"; do
  if [[ $self_test -eq 1 ]]; then
    if "${bench[@]}" --workload "$w" --seconds 1 "$@" >"$out/$w-self-test.log"; then
      echo "self-test FAILED: $w passed its checks with a corrupted value" >&2
      status=1
    else
      echo "self-test ok: $w: $(tail -n 1 "$out/$w-self-test.log")"
    fi
    continue
  fi
  for trace in 0 1; do
    "${bench[@]}" --workload "$w" --trace "$trace" "$@" || status=1
  done
done
exit $status
