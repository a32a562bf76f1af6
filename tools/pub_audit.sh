#!/usr/bin/env bash
# Public-surface audit: every `pub` item of a library crate has a caller.
#
#   tools/pub_audit.sh [checkout]     (default: the checkout holding this script)
#
# Every `pub` fn, struct, enum, trait, type, const, static or mod declared
# in `crates/*/src` (bins excluded) must be named outside that crate's
# library source: by another crate, the crate's own `tests/` or `src/bin/`,
# `examples/`, the root `src/`, or `benchmark/` (which compiles against the
# public names). A name that only a live `pub` signature of its own crate
# mentions (parameter, return, field, variant or bound type) passes too:
# narrowing it would leak a private type. Comments are ignored; names match
# as whole identifiers, so a caller spelling the name for another item
# also passes.
#
# Prints one `path:line: name` per offender and exits 1 if there is any.
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
exec python3 - "$root" <<'PY'
import os, re, sys

root = sys.argv[1]
ident = re.compile(r"[A-Za-z_]\w*")
decl = re.compile(r'^[ \t]*pub[ \t]+(?:(?:unsafe|async|const|extern "C")[ \t]+)*'
                  r"(fn|struct|enum|trait|type|const|static|mod|union)[ \t]+([A-Za-z_]\w*)", re.M)

def source(path):  # the file with its comments blanked, line numbers kept
    text = open(path, encoding="utf-8").read()
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group().count("\n"), text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)

def body(text, at):  # the `{ … }` block opening at `at`
    depth = 0
    for i in range(at, len(text)):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        if depth == 0:
            return text[at:i + 1]
    return text[at:]

files = {}
for top in ("crates", "examples", "src", "benchmark"):
    for d, subdirs, names in os.walk(os.path.join(root, top)):
        subdirs[:] = [s for s in subdirs if s != "target"]
        for n in names:
            if n.endswith(".rs"):
                files[os.path.relpath(os.path.join(d, n), root)] = source(os.path.join(d, n))

offenders = []
for crate in sorted(os.listdir(os.path.join(root, "crates"))):
    lib = f"crates/{crate}/src/"
    inside = sorted(p for p in files if p.startswith(lib) and not p.startswith(lib + "bin/"))
    outside = {w for p, text in files.items() if p not in inside for w in ident.findall(text)}
    decls = []  # (path, line, name, identifiers its public signature names)
    for p in inside:
        text = files[p]
        for m in decl.finditer(text):
            kind, name = m.groups()
            ends = [i for i in (text.find("{", m.end()), text.find(";", m.end())) if i >= 0]
            end = min(ends, default=len(text))
            sig = "" if kind == "mod" else text[m.end():end]
            if text[end:end + 1] == "{" and kind in ("enum", "trait"):
                sig += body(text, end)
            elif text[end:end + 1] == "{" and kind in ("struct", "union"):
                sig += " ".join(re.findall(r"\bpub\b[^\n]*", body(text, end)))
            decls.append((p, text.count("\n", 0, m.start()) + 1, name, set(ident.findall(sig))))
    live = {name for _, _, name, _ in decls if name in outside}
    while True:  # what a live signature names is live too
        grown = live.union(*(needs for _, _, name, needs in decls if name in live))
        if grown == live:
            break
        live = grown
    offenders += [f"{p}:{line}: {name}" for p, line, name, _ in decls if name not in live]

print("\n".join(offenders) if offenders else
      "every `pub` declaration in crates/*/src has a caller outside its crate's library source")
if offenders:
    sys.exit(f"{len(offenders)} `pub` declaration(s) have no caller outside their crate's "
             "library source: make them pub(crate), or delete them")
PY
