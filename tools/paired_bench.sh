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
# image; anything else is "no consistent direction".
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
for w in "${workloads[@]}"; do
    for i in $(seq 1 "$pairs"); do
        order=(base head)
        [ $((i % 2)) -eq 0 ] && order=(head base)
        for side in "${order[@]}"; do
            echo "pair $i of $w: $side" >&2
            "$work/target-$side/release/masm-benchmark" --workload "$w" --seed "$i" \
                --seconds "$seconds" --trace 0 2>>"$out/$w.$side.stderr" |
                tail -n 1 >>"$out/$w.$side.jsonl"
        done
    done
done

python3 - "$root/BENCHMARK.json" "$out" "$rev" "${workloads[@]}" <<'PY'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
out, rev, workloads = sys.argv[2], sys.argv[3], sys.argv[4:]
decl = {m["name"]: m for m in bench["end_to_end"]}
# Deterministic metrics: simulated-device time and counters only.
exact = {"scan_sim_slowdown", "range_sim_slowdown", "range_sim_tail10_us",
         "sustained_sim_kupd_per_s", "flash_writes_per_update",
         "migrate_sim_x_scan", "recover_sim_ms"}
bad = []

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3

for w in workloads:
    rows = {s: [json.loads(l) for l in open(f"{out}/{w}.{s}.jsonl")] for s in ("base", "head")}
    n = len(rows["base"])
    assert n == len(rows["head"]), f"{w}: unequal number of runs per side"
    for i, (b, h) in enumerate(zip(rows["base"], rows["head"]), 1):
        for side, row in (("parent", b), ("change", h)):
            if not row["correct"] or row["failed"]:
                bad.append(f"{w} pair {i} ({side}): correct={row['correct']} failed={row['failed']}")
        for key in ("attempted", "failed"):
            if b[key] != h[key]:
                bad.append(f"{w} pair {i}: `{key}` {b[key]} at {rev}, {h[key]} here")
    print(f"\n### {w} ({n} pairs, seeds 1..{n}, --seconds {bench['run_seconds']})\n")
    print(f"| metric | unit | median {rev} | median change | change vs parent | IQR parent | IQR change "
          "| wins / pairs | |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    for name, d in decl.items():
        a = [r["metrics"][name]["value"] for r in rows["base"]]
        b = [r["metrics"][name]["value"] for r in rows["head"]]
        if name in exact:
            same = a == b
            if not same:
                bad.append(f"{w} {name}: deterministic metric differs from {rev}")
            print(f"| `{name}` | {d['unit']} | {statistics.median(a):.9g} | {statistics.median(b):.9g} "
                  f"| | | | | {'bit-identical in every pair' if same else 'NOT BIT-IDENTICAL'} |")
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        lower = d["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
        (qa1, qa3), (qb1, qb3) = quartiles(a), quartiles(b)
        gain = (ma - mb) if lower else (mb - ma)
        worse = (mb - ma) / ma if lower else (ma - mb) / ma
        if 10 * wins >= 9 * n and gain > qa3 - qa1:
            verdict = "better"
        elif 10 * losses >= 9 * n and -gain > qa3 - qa1:
            verdict = f"worse, within the {d['bound']:.0%} bound"
        else:
            verdict = "no consistent direction"
        if worse > d["bound"]:
            verdict = f"WORSE BY MORE THAN THE {d['bound']:.0%} BOUND"
            bad.append(f"{w} {name}: median {worse:+.1%} worse than {rev}, bound {d['bound']:.0%}")
        print(f"| `{name}` | {d['unit']} | {ma:.6g} | {mb:.6g} | {(mb - ma) / ma:+.1%} "
              f"| {(qa3 - qa1) / ma:.1%} | {(qb3 - qb1) / mb:.1%} | {wins} / {n} | {verdict} |")

print()
if bad:
    print("PAIRED RUN FAILED:")
    for line in bad:
        print(" -", line)
    sys.exit(1)
print(f"every deterministic metric, `attempted` and `failed` identical to {rev} in every pair; "
      "no operation failed.")
PY
