#!/usr/bin/env bash
# A/A check: the same build measured twice must agree with itself.
#
#   benchmark/aa.sh [runs-per-set] [workload ...]
#
# Runs two alternating sets (A1 B1 A2 B2 ...) of `runs-per-set` runs
# (default 5) of each workload. Run i of either set uses seed i, so every
# deterministic metric of Ai and Bi must match to the last bit. Prints,
# per workload and end-to-end metric: both medians, their difference,
# each set's quartile spread (Q3-Q1 over the median, what the acceptance
# driver computes) and range (max-min over the median), and the bound
# from BENCHMARK.json. Exits non-zero if a difference exceeds its bound,
# a quartile spread exceeds its bound (setup_s excepted, as in the
# driver), a deterministic metric differs by one bit, or a run fails.
# AA_ANALYSE_ONLY=1 skips the measuring and re-reads the last results.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-5}"
shift || true
workloads=("$@")
if [ "${#workloads[@]}" -eq 0 ]; then
    workloads=(scan_cold scan_hot ingest_sustained mixed_online)
fi
seconds="$(python3 -c "import json; print(json.load(open('$here/../BENCHMARK.json'))['run_seconds'])")"

out="$here/out/aa"
if [ -z "${AA_ANALYSE_ONLY:-}" ]; then
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/masm-benchmark"
rm -rf "$out"
mkdir -p "$out"

for w in "${workloads[@]}"; do
    for i in $(seq 1 "$runs"); do
        for set in A B; do
            echo "run $set$i of $w" >&2
            "$bin" --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 \
                2>>"$out/$w.stderr" | tail -n 1 >>"$out/$w.$set.jsonl"
        done
    done
done
fi

python3 - "$here/../BENCHMARK.json" "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
out, workloads = sys.argv[2], sys.argv[3:]
decl = {m["name"]: m for m in bench["end_to_end"]}
# Deterministic metrics: simulated-device time and counters only.
exact = {"scan_sim_slowdown", "range_sim_slowdown", "range_sim_tail10_us",
         "sustained_sim_kupd_per_s", "flash_writes_per_update",
         "migrate_sim_x_scan", "recover_sim_ms"}
bad = []

def iqr_share(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

for w in workloads:
    sets = {s: [json.loads(l) for l in open(f"{out}/{w}.{s}.jsonl")] for s in "AB"}
    for s, rows in sets.items():
        for i, row in enumerate(rows, 1):
            if not row["correct"] or row["failed"]:
                bad.append(f"{w} {s}{i}: correct={row['correct']} failed={row['failed']}")
    print(f"\n### {w} ({len(sets['A'])} runs per set)\n")
    print("| metric | unit | median A | median B | B vs A | IQR A | IQR B | range A | range B | bound | |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---|")
    for name, d in decl.items():
        a = [r["metrics"][name]["value"] for r in sets["A"]]
        b = [r["metrics"][name]["value"] for r in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        diff = (mb - ma) / ma
        worse = diff if d["better"] == "lower" else -diff
        spreads = [iqr_share(a), iqr_share(b)]
        ranges = [(max(v) - min(v)) / statistics.median(v) for v in (a, b)]
        notes = []
        if abs(diff) > d["bound"]:
            notes.append("DIFFERENCE OVER BOUND")
            bad.append(f"{w} {name}: medians differ by {diff:+.2%}, bound {d['bound']:.1%}")
        if name != "setup_s" and max(spreads) > d["bound"]:
            notes.append("SPREAD OVER BOUND")
            bad.append(f"{w} {name}: quartile spread {max(spreads):.2%}, bound {d['bound']:.1%}")
        elif name != "setup_s" and max(spreads) > d["bound"] / 3:
            notes.append("spread over a third of the bound")
        if name in exact and a != b:
            notes.append("NOT BIT-IDENTICAL")
            bad.append(f"{w} {name}: deterministic metric differs between A and B")
        elif name in exact:
            notes.append("bit-identical")
        print(f"| `{name}` | {d['unit']} | {ma:.6g} | {mb:.6g} | {worse:+.2%} worse | "
              f"{spreads[0]:.2%} | {spreads[1]:.2%} | {ranges[0]:.2%} | {ranges[1]:.2%} | "
              f"{d['bound']:.1%} | {', '.join(notes)} |")

print()
if bad:
    print("A/A FAILED:")
    for line in bad:
        print(" -", line)
    sys.exit(1)
print("A/A passed: every difference and quartile spread is within its bound, "
      "every deterministic metric is bit-identical between the two sets, no operation failed.")
EOF
