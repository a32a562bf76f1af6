#!/usr/bin/env bash
# Record the benchmark trajectory of this checkout.
#
#   BENCH_OUT=BENCH_<n>.json tools/bench_record.sh [seeds=5] [workload ...]
#
# Builds `benchmark/` from this checkout's working tree (target directory
# in a throw-away temporary directory), then runs each workload (default:
# all four in BENCHMARK.json) for seeds 1..seeds at BENCHMARK.json's
# `run_seconds`, once with `--trace 0` (the 14 end-to-end metrics) and
# once with `--trace 1` (the per-layer metrics), reading the box around
# each run (`tools/box_sample.sh`: guest steal during the run, 1-minute
# load before and after). `tools/bench_compare.py
# --collect` folds the runs into the recording BENCH_OUT (default
# `BENCH_<short rev>.json` at the repository root): the rev and whether
# the tree had uncommitted changes, the date, `nproc`, the seeds,
# `correct` / `attempted` / `failed` of every run, and per workload and
# metric the value of each seed with its median and quartiles, plus the
# derived `merged_over_clean` row; each run carries its box readings. Compare two recordings with
# `tools/bench_compare.py a.json b.json`.
#
# A run that fails (non-zero exit, `correct` false or a failed
# operation) fails the script. About 25 minutes for five seeds of all
# four workloads on a 2-vCPU guest; run nothing else on the box
# meanwhile. Not run in CI.
set -euo pipefail

seeds="${1:-5}"
shift || true
root="$(git rev-parse --show-toplevel)"
# shellcheck source=box_sample.sh
. "$root/tools/box_sample.sh"
workloads=("$@")
if [ "${#workloads[@]}" -eq 0 ]; then
    mapfile -t workloads < <(python3 -c "
import json
for w in json.load(open('$root/BENCHMARK.json'))['workloads']: print(w['name'])")
fi
seconds="$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")"
rev="$(git -C "$root" rev-parse HEAD)"
out="${BENCH_OUT:-$root/BENCH_$(git -C "$root" rev-parse --short HEAD).json}"
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    rev="$rev+dirty"
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cargo build --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$work/target"
for w in "${workloads[@]}"; do
    for seed in $(seq 1 "$seeds"); do
        for trace in 0 1; do
            echo "$w seed $seed --trace $trace" >&2
            box_begin
            "$work/target/release/masm-benchmark" --workload "$w" --seed "$seed" \
                --seconds "$seconds" --trace "$trace" >"$work/run.out" 2>>"$work/$w.stderr" || {
                tail -n 20 "$work/$w.stderr" >&2
                echo "$w seed $seed --trace $trace failed" >&2
                exit 1
            }
            box_end "$work/$w.box.trace$trace.jsonl"
            tail -n 1 "$work/run.out" >>"$work/$w.trace$trace.jsonl"
        done
    done
done
python3 "$root/tools/bench_compare.py" --collect "$out" "$work" "$rev" \
    "$(seq -s, 1 "$seeds")" "${workloads[@]}"
python3 - "$out" <<'PY'
import json, sys
bad = [f"{w} seed {r['seed']} --trace {r['trace']}: correct={r['correct']} failed={r['failed']}"
       for w, d in json.load(open(sys.argv[1]))["workloads"].items()
       for r in d["runs"] if not r["correct"] or r["failed"]]
if bad:
    sys.exit("runs failed their checks:\n" + "\n".join(bad))
PY
echo "wrote $out" >&2
