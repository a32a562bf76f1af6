#!/usr/bin/env python3
"""Benchmark recordings: fold runs into one, and compare two.

  tools/bench_compare.py a.json b.json
  tools/bench_compare.py --paired a.json b.json
  tools/bench_compare.py --collect out.json <dir> <rev> <seeds> <workload>...
  tools/bench_compare.py --loaded rec.json

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
bound.

Without `--paired` the two recordings were not interleaved, and before
anything else their boxes are compared: the median `env.runq_wait_ms`
and the median guest steal over all of each recording's runs. If either
differs by more than LOADED_OVER_MEDIAN times (a steal only when the
larger of the two is at least STEAL_FLOOR_PCT, and only when both
recordings hold steal readings), it prints "BOXES DIFFER" with both
medians and exits with status 2: the wall-clock figures of the two
would measure the boxes as much as the trees, so no verdict is given.

Before the tables it prints each recording's runs one by one:
the run-queue wait (`env.runq_wait_ms`, the box-load calibration of a
`--trace 1` run) and the box readings taken around the run (guest steal
as a share of CPU time, 1-minute load before and after;
`tools/box_sample.sh`), and a "box loaded" line for each run whose wait
or steal is more than three times its recording's median (a steal also
at least STEAL_FLOOR_PCT, below which it is noise): the wall-clock
figures of such a run measure the box as much as the change. Each
workload's table is followed by both sides' median readings. They
inform; they change no verdict. Without `--paired` the two recordings
were not interleaved, so the verdict is a screen: a "faster" claim is
judged by `tools/paired_bench.sh`, which calls this with `--paired`.

`--collect` folds `<dir>/<workload>.trace0.jsonl` (and, when present,
`<dir>/<workload>.trace1.jsonl`) — the benchmark's last stdout line of
each run, one per seed in the order of `<seeds>` (comma-separated) —
into the recording `out.json`, labelled `<rev>`. Where both traces were
run it adds `merged_over_clean`: the untraced run's
`scan_wall_ns_per_rec` over the traced run's
`pagestore.heap.scan_ns_per_rec`, seed by seed. A
`<dir>/<workload>.box.trace<t>.jsonl` (one reading per run of
`--trace <t>`, in seed order) is kept as each of those runs' `box`. A
run that was repeated (`tools/bench_record.sh` repeats a loaded one)
counts with its last attempt; the earlier ones, lines `{"seed", "row",
"box"}` of `<dir>/<workload>.earlier.trace<t>.jsonl` in attempt order,
are kept as its `earlier` list (`correct`, `attempted`, `failed`, `box`
and every metric's value), and no median reads them.

`--loaded` prints `<workload> <seed> <trace>` for each run of the
recording that the "box loaded" rule flags.
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
# Run-queue wait of the benchmark's calibration, and how far above its
# recording's median a run's wait or steal marks the box as loaded.
RUNQ = "env.runq_wait_ms"
LOADED_OVER_MEDIAN = 3
# A steal below this share of CPU time is noise, whatever the median.
STEAL_FLOOR_PCT = 0.5
# Readings of the box taken around each run of a paired comparison.
BOX = ("steal_pct", "load1_before", "load1_after")


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
            box_path = os.path.join(directory, f"{w}.box.trace{trace}.jsonl")
            boxes = ([json.loads(line) for line in open(box_path)] if os.path.exists(box_path)
                     else [None] * len(rows))
            assert len(boxes) == len(rows), f"{box_path}: {len(boxes)} readings for {len(rows)} runs"
            earlier_path = os.path.join(directory, f"{w}.earlier.trace{trace}.jsonl")
            earlier = ([json.loads(line) for line in open(earlier_path)]
                       if os.path.exists(earlier_path) else [])
            for seed, row, box in zip(seeds, rows, boxes):
                run = {"seed": seed, "trace": trace, **attempt(row, box)}
                repeated = [attempt(e["row"], e["box"], metrics=True)
                            for e in earlier if e["seed"] == seed]
                if repeated:
                    run["earlier"] = repeated
                runs.append(run)
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


def attempt(row, box, metrics=False):
    """One attempt of a run: its checks, its box readings and, for an
    attempt that a later one replaced, every metric's value."""
    run = {"correct": row["correct"], "attempted": row["attempted"], "failed": row["failed"]}
    if box is not None:
        run["box"] = {key: box[key] for key in BOX}
    if metrics:
        run["metrics"] = {name: m["value"] for name, m in row["metrics"].items()}
    return run


def box_of(rec):
    """`rec`'s runs that carry a box reading — (workload, run, run-queue
    wait of a traced run or None) — and the median wait and guest steal
    over them (None where no run has one)."""
    runs = []
    for w, wr in rec["workloads"].items():
        waits = dict(zip(rec["seeds"], wr["metrics"][RUNQ]["values"])) if RUNQ in wr["metrics"] else {}
        for run in wr["runs"]:
            wait = waits.get(run["seed"]) if run["trace"] == 1 else None
            if wait is not None or "box" in run:
                runs.append((w, run, wait))
    waits = [wait for _, _, wait in runs if wait is not None]
    steals = [run["box"]["steal_pct"] for _, run, _ in runs if "box" in run]
    median_wait = statistics.median(waits) if waits else None
    median_steal = statistics.median(steals) if steals else None
    return runs, median_wait, median_steal


def boxes_differ(a, b):
    """Refuse to screen two recordings taken on boxes that differ: print
    "BOXES DIFFER" with both medians and exit with status 2 when their
    median run-queue wait, or their median guest steal (the larger at
    least STEAL_FLOOR_PCT), differ by more than LOADED_OVER_MEDIAN
    times."""
    (_, wait_a, steal_a), (_, wait_b, steal_b) = box_of(a), box_of(b)

    def apart(x, y):
        low, high = sorted((x, y))
        return high > LOADED_OVER_MEDIAN * low

    differ = []
    if wait_a is not None and wait_b is not None and apart(wait_a, wait_b):
        differ.append(f"median `{RUNQ}` {wait_a:.3g} ms at {a['rev']}, {wait_b:.3g} ms at {b['rev']}")
    if (steal_a is not None and steal_b is not None and max(steal_a, steal_b) >= STEAL_FLOOR_PCT
            and apart(steal_a, steal_b)):
        differ.append(f"median guest steal {steal_a:.3g} % at {a['rev']}, {steal_b:.3g} % at {b['rev']}")
    if differ:
        print(f"BOXES DIFFER (more than {LOADED_OVER_MEDIAN}x apart): " + "; ".join(differ))
        print("No wall-clock verdict: record both sides on one quiet box, or pair them with "
              "tools/paired_bench.sh.")
        sys.exit(2)


def loaded(run, wait, median_wait, median_steal):
    """Why the box was loaded during `run` — its wait or steal above
    LOADED_OVER_MEDIAN times its recording's median (a steal also at
    least STEAL_FLOOR_PCT) — or an empty list."""
    why = []
    steal = run["box"]["steal_pct"] if "box" in run else None
    if steal is not None and steal > LOADED_OVER_MEDIAN * median_steal and steal >= STEAL_FLOOR_PCT:
        why.append(f"guest steal {steal:.3g} % of CPU time, "
                   f"{steal / median_steal if median_steal else float('inf'):.1f}x its recording's median")
    if wait is not None and wait > LOADED_OVER_MEDIAN * median_wait:
        why.append(f"waited {wait:.3g} ms in the run queue, {wait / median_wait:.1f}x its "
                   "recording's median")
    return why


def loaded_runs(rec):
    """Print `<workload> <seed> <trace>` for each run of `rec` that was
    loaded: what `tools/bench_record.sh` runs again."""
    runs, median_wait, median_steal = box_of(rec)
    for w, run, wait in runs:
        if loaded(run, wait, median_wait, median_steal):
            print(w, run["seed"], run["trace"])


def box_runs(rec, label):
    """Print `rec`'s runs one by one — the run-queue wait of a traced run
    and the box readings taken around it — and a "box loaded" line for
    each run whose wait or steal is above LOADED_OVER_MEDIAN times the
    median of all of its recording's runs (a steal also at least
    STEAL_FLOOR_PCT)."""
    runs, median_wait, median_steal = box_of(rec)
    if not runs:
        return
    medians = ([f"`{RUNQ}` {median_wait:.3g} ms"] if median_wait is not None else []) + \
        ([f"guest steal {median_steal:.3g} %"] if median_steal is not None else [])
    print(f"\nRuns of the {label} ({rec['rev']}), seeds {rec['seeds']}, medians {', '.join(medians)}:")
    flagged = []
    for w, run, wait in runs:
        what = f"{w} seed {run['seed']}" + (", traced" if run["trace"] == 1 else "")
        readings = [f"run-queue wait {wait:.3g} ms"] if wait is not None else []
        if "box" in run:
            box = run["box"]
            readings.append(f"guest steal {box['steal_pct']:.3g} %, 1-minute load "
                            f"{box['load1_before']:.2f} before, {box['load1_after']:.2f} after")
        if run.get("earlier"):
            readings.append(f"last of {len(run['earlier']) + 1} attempts")
        flagged.extend(f"box loaded: {label} {what}: {why}"
                       for why in loaded(run, wait, median_wait, median_steal))
        print(f"  {what}: " + "; ".join(readings))
    for line in flagged:
        print(line)


def compare(a, b, paired):
    if not paired:
        boxes_differ(a, b)
    rev, label_b = a["rev"], "here" if paired else f"at {b['rev']}"
    box_runs(a, "parent")
    box_runs(b, "change")
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
        box_readings(wa, wb, rev)
    print()
    if bad:
        print("PAIRED RUN FAILED:" if paired else "COMPARISON FAILED:")
        for line in bad:
            print(" -", line)
        sys.exit(1)
    print(f"every deterministic metric, `attempted` and `failed` identical to {rev} in every pair; "
          "no operation failed.")


def box_readings(wa, wb, rev):
    """Each side's median box readings over its runs of one workload."""
    for label, wr in ((rev, wa), ("change", wb)):
        boxes = [run["box"] for run in wr["runs"] if "box" in run]
        if boxes:
            med = {key: statistics.median(box[key] for box in boxes) for key in BOX}
            print(f"\nbox during the {label} runs (medians of {len(boxes)}): guest steal "
                  f"{med['steal_pct']:.2f} % of CPU time, 1-minute load {med['load1_before']:.2f} before, "
                  f"{med['load1_after']:.2f} after")


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
    elif args[:1] == ["--loaded"] and len(args) == 2:
        loaded_runs(json.load(open(args[1])))
    elif len(args) == 2 or (len(args) == 3 and args[0] == "--paired"):
        a, b = (json.load(open(path)) for path in args[-2:])
        compare(a, b, paired=args[0] == "--paired")
    else:
        sys.exit(__doc__.split("\n\n")[1])


if __name__ == "__main__":
    main(sys.argv[1:])
