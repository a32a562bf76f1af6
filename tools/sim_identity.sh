#!/usr/bin/env bash
# Same-behaviour check: the simulated device clock must not notice a change.
#
#   tools/sim_identity.sh <rev>
#
# Builds `benchmark/` at <rev> (a throw-away `git archive` copy) and in
# this checkout, runs the four benchmark workloads once each at one seed
# (SEED, default 1) and `--seconds 2`, and compares the seven
# simulated-clock metrics, `attempted` and `failed`: one row per
# workload and number. The paper's figures are held byte for byte by
# `cargo test` instead (`crates/bench/tests/golden.rs`).
#
# Exits non-zero if any number differs by one bit.
set -euo pipefail

rev="${1:?usage: tools/sim_identity.sh <rev>}"
root="$(git rev-parse --show-toplevel)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$rev" | tar -x -C "$work/base"

measure() { # <checkout> <label>
    cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$work/target-$2"
    "$work/target-$2/release/masm-benchmark" --workload all --seed "${SEED:-1}" \
        --seconds 2 --trace 0 >"$work/$2.jsonl" 2>"$work/$2.err" ||
        { tail -n 20 "$work/$2.err" >&2; echo "the run at $2 failed" >&2; exit 1; }
}
measure "$work/base" base
measure "$root" head

python3 - "$rev" "$work/base.jsonl" "$work/head.jsonl" <<'PY'
import json, sys

rev, base, head = sys.argv[1], *(
    [json.loads(line) for line in open(path)] for path in sys.argv[2:])
workloads = ["scan_cold", "scan_hot", "ingest_sustained", "mixed_online"]
exact = ["scan_sim_slowdown", "range_sim_slowdown", "range_sim_tail10_us",
         "sustained_sim_kupd_per_s", "flash_writes_per_update",
         "migrate_sim_x_scan", "recover_sim_ms"]
assert len(base) == len(head) == len(workloads), "one JSON line per workload"
differing = 0
print(f"| workload | number | {rev} | this checkout | |")
print("|---|---|---:|---:|---|")
for name, b, h in zip(workloads, base, head):
    rows = [(k, b[k], h[k]) for k in ("attempted", "failed")]
    rows += [(k, b["metrics"][k]["value"], h["metrics"][k]["value"]) for k in exact]
    for key, old, new in rows:
        same = old == new
        differing += not same
        print(f"| {name} | `{key}` | {old!r} | {new!r} | {'identical' if same else 'DIFFERS'} |")
if differing:
    sys.exit(f"{differing} number(s) differ from {rev}")
print(f"\nall {len(workloads) * (len(exact) + 2)} numbers identical to {rev}")
PY
