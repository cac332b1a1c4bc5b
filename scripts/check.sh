#!/usr/bin/env bash
# The single entry point for local checks and the CI check job
# (.github/workflows/ci.yml). It only orchestrates: the tests gate
# correctness, qbench measures performance, and docs/benchmarks.md ("Where
# each gate lives") maps every gate to its home.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

# --- docs, build, tests -------------------------------------------------------
./scripts/check_docs.sh
cmake -B build -S .
cmake --build build -j "${JOBS}"
# --no-tests=error: GTest being silently absent (find_package is QUIET)
# must fail the check, not green-light a run that executed zero tests.
(cd build && ctest --output-on-failure --no-tests=error -j "${JOBS}")

# --- the benchmark as a correctness gate --------------------------------------
# qbench (BENCHMARK.json) drives Q through its public API and checks every
# workload's output against a twin or referee; a failed check or op exits
# non-zero. Only the exit code is gated: no timing is compared here. The
# traced serve run also replays every sampled QueryView on bench-owned
# engines, so each snapshot a read copied is compared with a fresh search.
python3 qbench/run.py --selftest
python3 qbench/run.py --workload all --seed 1 --seconds 10 --trace 1

# --- system benches with same-run gates ---------------------------------------
# They stay until qbench's catalog has a 10k tier and a restart workload
# exists (ROADMAP item 1). Each exits non-zero on its own failures:
# bench_graph_scale when sharded output diverges from the unsharded solver
# on its verified queries, or when query p95 grows more than 5x from 10k to
# 100k sources (local-id mask compaction keeps masked search sublinear);
# bench_warm_restart when a restore is incomplete or its lazily recreated
# view diverges from the cold system's.
# Both write their JSON lines under bench/out/.
./build/bench_graph_scale --smoke
./build/bench_warm_restart --smoke

# Same-run ratios: a reference time over an optimized one from the same
# run, so no figure recorded on another machine is compared. Higher is
# better; a ratio under its fail bound fails the check, one under its warn
# bound prints a warning.
#   warm_restart_speedup: warm boot against the charitable cold replay
#     (associations recovered for free); under 0.9x the restore pays work
#     the snapshot exists to skip. It sits near its crossover at mid
#     scales, so 0.9-1.25x only warns.
#   warm_restart_realign_speedup: warm boot against the honest no-snapshot
#     recovery, the full matcher re-bootstrap.
# kernel                       JSON lines                        fail  warn
thresholds=(
  "warm_restart_speedup          bench/out/BENCH_warm_restart.json 0.9   1.25"
  "warm_restart_realign_speedup  bench/out/BENCH_warm_restart.json 0     10"
)
failed=0
for row in "${thresholds[@]}"; do
  read -r kernel file fail_below warn_below <<< "${row}"
  ratios="$(sed -nE "s/.*\"kernel\":\"${kernel}\".*\"ratio\":([0-9.]+).*/\1/p" \
            "${file}")"
  if [[ -z "${ratios}" ]]; then
    echo "check.sh: FAIL — no ${kernel} ratio in ${file}"
    failed=1
  fi
  for ratio in ${ratios}; do
    if awk -v r="${ratio}" -v b="${fail_below}" 'BEGIN { exit !(r < b) }'; then
      echo "check.sh: FAIL — ${kernel} ${ratio}x < ${fail_below}x"
      failed=1
    elif awk -v r="${ratio}" -v b="${warn_below}" 'BEGIN { exit !(r < b) }'
    then
      echo "check.sh: WARNING — ${kernel} ${ratio}x < ${warn_below}x"
    fi
  done
done
[[ "${failed}" == "0" ]] || exit 1
echo "check.sh: OK"
