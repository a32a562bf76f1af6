#!/usr/bin/env bash
# "Faster" check: alternating parent/change pairs of the repository's benchmark.
#
#   tools/paired_bench.sh <rev> [pairs=10] [workload ...]
#
# Builds `benchmark/` at <rev> (a throw-away `git archive` copy) and in
# this checkout, then runs `pairs` pairs of each workload (default: all
# four in BENCHMARK.json). Pair i uses seed i on both sides, `--seconds`
# is BENCHMARK.json's `run_seconds`, tracing is off, and the side that
# goes first alternates from pair to pair. Prints, per workload and
# end-to-end metric: both medians, both quartile spreads (Q3-Q1 over the
# median), wins / pairs for the change (ties count for neither), whether
# a deterministic metric was bit-identical in every pair, and the
# verdict of the choosing-metrics guide — "better" needs at least nine
# tenths of the pairs won *and* a median difference larger than the
# distance between the parent's own quartiles; "worse" is the mirror
# image; anything else is "no consistent direction". The arithmetic and
# the verdict rules are `tools/bench_compare.py --paired`'s.
#
# Around each run it reads the box (`tools/box_sample.sh`: guest steal
# during the run, 1-minute load before and after). The comparison prints
# each side's median readings beside its verdicts, and each run's
# readings with a "box loaded" flag, so a quiet box and a loaded one can
# be told apart.
#
# Exits non-zero if a deterministic metric, `attempted` or `failed`
# differs within a pair, a run fails an operation or its correctness
# checks, or a median is worse than the parent's by more than the
# metric's bound in BENCHMARK.json. ~35 minutes for ten pairs of
# everything; not run in CI.
set -euo pipefail

rev="${1:?usage: tools/paired_bench.sh <rev> [pairs=10] [workload ...]}"
pairs="${2:-10}"
shift
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

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
out="$work/out"

mkdir "$work/base" "$out"
git -C "$root" archive "$rev" | tar -x -C "$work/base"
for side in base head; do
    src="$root"
    [ "$side" = base ] && src="$work/base"
    cargo build --release --offline --quiet \
        --manifest-path "$src/benchmark/Cargo.toml" --target-dir "$work/target-$side"
done
mkdir "$out/base" "$out/head"
for w in "${workloads[@]}"; do
    for i in $(seq 1 "$pairs"); do
        order=(base head)
        [ $((i % 2)) -eq 0 ] && order=(head base)
        for side in "${order[@]}"; do
            echo "pair $i of $w: $side" >&2
            box_begin
            "$work/target-$side/release/masm-benchmark" --workload "$w" --seed "$i" \
                --seconds "$seconds" --trace 0 2>>"$out/$w.$side.stderr" |
                tail -n 1 >>"$out/$side/$w.trace0.jsonl"
            box_end "$out/$side/$w.box.trace0.jsonl"
        done
    done
done

for side in base head; do
    label="$rev"
    [ "$side" = head ] && label=HEAD
    python3 "$root/tools/bench_compare.py" --collect "$out/$side.json" "$out/$side" "$label" \
        "$(seq -s, 1 "$pairs")" "${workloads[@]}"
done
python3 "$root/tools/bench_compare.py" --paired "$out/base.json" "$out/head.json"
