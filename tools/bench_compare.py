#!/usr/bin/env python3
"""Benchmark recordings: fold runs into one, and compare two.

  tools/bench_compare.py a.json b.json
  tools/bench_compare.py --paired a.json b.json
  tools/bench_compare.py --collect out.json <dir> <rev> <seeds> <workload>...

A recording (`BENCH_*.json`, written by `tools/bench_record.sh`; see
`--collect`) holds, per workload, every run's `correct` / `attempted` /
`failed` and, per metric, the value of each seed with its median and
quartiles.

Comparing `a` (the parent) with `b` (the change) prints, per workload,
one row per end-to-end metric of BENCHMARK.json: both medians, the
change, both quartile spreads (Q3-Q1 over the median), wins / pairs for
`b` when the runs are paired by seed (ties count for neither) and the
verdict of the choosing-metrics guide: "better" needs at least nine
tenths of the pairs won *and* a median difference larger than the
distance between `a`'s own quartiles; "worse" is the mirror image;
anything else is "no consistent direction". The seven exact metrics
(simulated clock and counters) are checked for bit-identity seed by
seed instead. Per-layer metrics present in both recordings follow in a
second table, with no bound.

Exits non-zero if an exact metric, `attempted` or `failed` differs for
one seed, a run failed an operation or its correctness checks, or an
end-to-end median is worse than `a`'s by more than its BENCHMARK.json
bound. Without `--paired` the two recordings were not interleaved, so
the verdict is a screen: a "faster" claim is judged by
`tools/paired_bench.sh`, which calls this with `--paired`.

`--collect` folds `<dir>/<workload>.trace0.jsonl` (and, when present,
`<dir>/<workload>.trace1.jsonl`) — the benchmark's last stdout line of
each run, one per seed in the order of `<seeds>` (comma-separated) —
into the recording `out.json`, labelled `<rev>`. Where both traces were
run it adds `merged_over_clean`: the untraced run's
`scan_wall_ns_per_rec` over the traced run's
`pagestore.heap.scan_ns_per_rec`, seed by seed.
"""

import datetime
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# Deterministic metrics: simulated-device time and counters only.
EXACT = {"scan_sim_slowdown", "range_sim_slowdown", "range_sim_tail10_us",
         "sustained_sim_kupd_per_s", "flash_writes_per_update",
         "migrate_sim_x_scan", "recover_sim_ms"}
DERIVED = "merged_over_clean"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values, unit, run):
    q1, q3 = quartiles(values)
    return {"unit": unit, "run": run, "values": values,
            "median": statistics.median(values), "q1": q1, "q3": q3}


def collect(out, directory, rev, seeds, workloads):
    seeds = [int(s) for s in seeds.split(",")]
    recording = {
        "rev": rev,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": BENCH["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for w in workloads:
        runs, metrics, by_trace = [], {}, {}
        for trace in (0, 1):
            path = os.path.join(directory, f"{w}.trace{trace}.jsonl")
            if not os.path.exists(path):
                continue
            rows = [json.loads(line) for line in open(path)]
            assert len(rows) == len(seeds), f"{path}: {len(rows)} runs for {len(seeds)} seeds"
            by_trace[trace] = rows
            for seed, row in zip(seeds, rows):
                runs.append({"seed": seed, "trace": trace, "correct": row["correct"],
                             "attempted": row["attempted"], "failed": row["failed"]})
            for name in rows[0]["metrics"]:
                if all(name in row["metrics"] for row in rows):
                    values = [row["metrics"][name]["value"] for row in rows]
                    unit = rows[0]["metrics"][name]["unit"]
                    metrics[name] = summary(values, unit, f"--trace {trace}")
        if 0 in by_trace and 1 in by_trace:
            scan = [r["metrics"]["scan_wall_ns_per_rec"]["value"] for r in by_trace[0]]
            clean = [r["metrics"]["pagestore.heap.scan_ns_per_rec"]["value"] for r in by_trace[1]]
            metrics[DERIVED] = summary(
                [s / c for s, c in zip(scan, clean)], "ratio",
                "two runs per seed: scan_wall_ns_per_rec (--trace 0) over "
                "pagestore.heap.scan_ns_per_rec (--trace 1)")
        recording["workloads"][w] = {"runs": runs, "metrics": metrics}
    with open(out, "w") as f:
        json.dump(recording, f, indent=1)
        f.write("\n")


def compare(a, b, paired):
    rev, label_b = a["rev"], "here" if paired else f"at {b['rev']}"
    decl = {m["name"]: m for m in BENCH["end_to_end"]}
    layers = {m["name"]: m for m in BENCH["per_layer"]}
    layers[DERIVED] = {"unit": "ratio", "better": "lower"}
    bad = []
    for w, wa in a["workloads"].items():
        wb = b["workloads"].get(w)
        if wb is None:
            continue
        seeds = a["seeds"]
        n = len(seeds)
        assert seeds == b["seeds"], f"{w}: the recordings ran different seeds"
        runs_b = {(r["seed"], r["trace"]): r for r in wb["runs"]}
        for ra in wa["runs"]:
            rb = runs_b.get((ra["seed"], ra["trace"]))
            if rb is None:
                continue
            i, trace = seeds.index(ra["seed"]) + 1, "" if ra["trace"] == 0 else ", traced"
            for side, row in (("parent", ra), ("change", rb)):
                if not row["correct"] or row["failed"]:
                    bad.append(f"{w} pair {i}{trace} ({side}): correct={row['correct']} "
                               f"failed={row['failed']}")
            for key in ("attempted", "failed"):
                if ra[key] != rb[key]:
                    bad.append(f"{w} pair {i}{trace}: `{key}` {ra[key]} at {rev}, {rb[key]} {label_b}")
        kind = "pairs" if paired else "seeds, recordings compared seed by seed"
        print(f"\n### {w} ({n} {kind}, seeds {seeds[0]}..{seeds[-1]}, --seconds {a['run_seconds']})\n")
        print(f"| metric | unit | median {rev} | median change | change vs parent | IQR parent | IQR change "
              "| wins / pairs | |")
        print("|---|---|---:|---:|---:|---:|---:|---:|---|")
        for name, d in decl.items():
            if name in wa["metrics"] and name in wb["metrics"]:
                metric_row(w, name, d, wa["metrics"][name], wb["metrics"][name], rev, n, bad)
        shared = [name for name in layers if name in wa["metrics"] and name in wb["metrics"]]
        if shared:
            print(f"\n| per-layer metric | unit | median {rev} | median change | change vs parent "
                  "| IQR parent | IQR change | wins / pairs | |")
            print("|---|---|---:|---:|---:|---:|---:|---:|---|")
            for name in shared:
                metric_row(w, name, layers[name], wa["metrics"][name], wb["metrics"][name], rev, n, bad)
    print()
    if bad:
        print("PAIRED RUN FAILED:" if paired else "COMPARISON FAILED:")
        for line in bad:
            print(" -", line)
        sys.exit(1)
    print(f"every deterministic metric, `attempted` and `failed` identical to {rev} in every pair; "
          "no operation failed.")


def metric_row(w, name, d, ma_, mb_, rev, n, bad):
    a, b = ma_["values"], mb_["values"]
    if name in EXACT:
        same = a == b
        if not same:
            bad.append(f"{w} {name}: deterministic metric differs from {rev}")
        print(f"| `{name}` | {d['unit']} | {statistics.median(a):.9g} | {statistics.median(b):.9g} "
              f"| | | | | {'bit-identical in every pair' if same else 'NOT BIT-IDENTICAL'} |")
        return
    ma, mb = statistics.median(a), statistics.median(b)
    lower = d["better"] == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    losses = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
    (qa1, qa3), (qb1, qb3) = quartiles(a), quartiles(b)
    gain = (ma - mb) if lower else (mb - ma)
    bound = d.get("bound")
    if 10 * wins >= 9 * n and gain > qa3 - qa1:
        verdict = "better"
    elif 10 * losses >= 9 * n and -gain > qa3 - qa1:
        verdict = f"worse, within the {bound:.0%} bound" if bound is not None else "worse"
    else:
        verdict = "no consistent direction"
    if ma == 0 or mb == 0:
        print(f"| `{name}` | {d['unit']} | {ma:.6g} | {mb:.6g} | | | | {wins} / {n} | {verdict} |")
        return
    worse = (mb - ma) / ma if lower else (ma - mb) / ma
    if bound is not None and worse > bound:
        verdict = f"WORSE BY MORE THAN THE {bound:.0%} BOUND"
        bad.append(f"{w} {name}: median {worse:+.1%} worse than {rev}, bound {bound:.0%}")
    print(f"| `{name}` | {d['unit']} | {ma:.6g} | {mb:.6g} | {(mb - ma) / ma:+.1%} "
          f"| {(qa3 - qa1) / ma:.1%} | {(qb3 - qb1) / mb:.1%} | {wins} / {n} | {verdict} |")


def main(args):
    if args[:1] == ["--collect"] and len(args) >= 6:
        collect(args[1], args[2], args[3], args[4], args[5:])
    elif len(args) == 2 or (len(args) == 3 and args[0] == "--paired"):
        a, b = (json.load(open(path)) for path in args[-2:])
        compare(a, b, paired=args[0] == "--paired")
    else:
        sys.exit(__doc__.split("\n\n")[1])


if __name__ == "__main__":
    main(sys.argv[1:])
