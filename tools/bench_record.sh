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
# A run during which the box was loaded — its run-queue wait
# (`env.runq_wait_ms`, traced runs) or guest steal above 3x the
# recording's median, a steal also at least 0.5 % of CPU time
# (`bench_compare.py --loaded`) — is run again, in up to two rounds (the
# medians are taken afresh before each). The recording keeps every
# attempt: the last one counts, the earlier ones are the run's
# `earlier` list.
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
runs="$work/runs"
mkdir "$runs"
cargo build --release --offline --quiet \
    --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$work/target"

# One run of workload $1 at seed $2 with --trace $3: its last stdout line
# in runs/<w>.<seed>.<trace>.json, the box readings around it in .box
# beside it. An earlier attempt's two files get its number appended.
run_one() {
    local w="$1" seed="$2" trace="$3" at="$runs/$1.$2.$3" k=1
    if [ -e "$at.json" ]; then
        while [ -e "$at.json.$k" ]; do k=$((k + 1)); done
        mv "$at.json" "$at.json.$k"
        mv "$at.box" "$at.box.$k"
    fi
    echo "$w seed $seed --trace $trace" >&2
    box_begin
    "$work/target/release/masm-benchmark" --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" >"$work/run.out" 2>>"$work/$w.stderr" || {
        tail -n 20 "$work/$w.stderr" >&2
        echo "$w seed $seed --trace $trace failed" >&2
        exit 1
    }
    box_end "$at.box"
    tail -n 1 "$work/run.out" >"$at.json"
}

# Fold the runs into the recording: the last attempt of each in
# <w>.trace<t>.jsonl and <w>.box.trace<t>.jsonl, the earlier ones in
# <w>.earlier.trace<t>.jsonl.
collect() {
    local w seed trace at k
    for w in "${workloads[@]}"; do
        for trace in 0 1; do
            : >"$work/$w.trace$trace.jsonl"
            : >"$work/$w.box.trace$trace.jsonl"
            : >"$work/$w.earlier.trace$trace.jsonl"
            for seed in $(seq 1 "$seeds"); do
                at="$runs/$w.$seed.$trace"
                cat "$at.json" >>"$work/$w.trace$trace.jsonl"
                cat "$at.box" >>"$work/$w.box.trace$trace.jsonl"
                k=1
                while [ -e "$at.json.$k" ]; do
                    printf '{"seed": %s, "row": %s, "box": %s}\n' \
                        "$seed" "$(cat "$at.json.$k")" "$(cat "$at.box.$k")" \
                        >>"$work/$w.earlier.trace$trace.jsonl"
                    k=$((k + 1))
                done
            done
        done
    done
    python3 "$root/tools/bench_compare.py" --collect "$out" "$work" "$rev" \
        "$(seq -s, 1 "$seeds")" "${workloads[@]}"
}

for w in "${workloads[@]}"; do
    for seed in $(seq 1 "$seeds"); do
        for trace in 0 1; do
            run_one "$w" "$seed" "$trace"
        done
    done
done
collect
for round in 1 2; do
    mapfile -t again < <(python3 "$root/tools/bench_compare.py" --loaded "$out")
    [ "${#again[@]}" -eq 0 ] && break
    echo "round $round: ${#again[@]} runs on a loaded box run again" >&2
    for run in "${again[@]}"; do
        read -r w seed trace <<<"$run"
        run_one "$w" "$seed" "$trace"
    done
    collect
done
python3 - "$out" <<'PY'
import json, sys
bad = [f"{w} seed {r['seed']} --trace {r['trace']}: correct={r['correct']} failed={r['failed']}"
       for w, d in json.load(open(sys.argv[1]))["workloads"].items()
       for r in d["runs"] if not r["correct"] or r["failed"]]
if bad:
    sys.exit("runs failed their checks:\n" + "\n".join(bad))
PY
echo "wrote $out" >&2
