#!/usr/bin/env python3
"""Compare the decision reports of two source trees on the benchmark corpora.

For each tree a subprocess imports that tree's `src/isodet` and
`perfbench/corpus.py`, builds the three corpora (`q-regularize`,
`fp-crosscheck`, `small-exhaustive`) for every seed, and dumps one JSON
line per report: the payload of `isodet decide --json --certificate
--emit-regularization`, as that tree's `cli._report_json` builds it, with
the `regularization` object flattened into `regularization.<key>` fields.
Every `decide` report is dumped and, on `fp-crosscheck` and `q-regularize`,
every `decide_gamma_shift` report.  The script then lists each field that
differs between the trees, ends with a tally of the differences per
(route, field), and exits 1 if any field differs, or 2 if a tree cannot
be dumped.

Example (a second checkout of the parent commit in ../parent):
    python3 scripts/report_diff.py ../parent . --seeds 1,2,3
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

WORKLOADS = ("q-regularize", "fp-crosscheck", "small-exhaustive")
# the gamma route is dumped over F_p and over Q
GAMMA_WORKLOADS = ("fp-crosscheck", "q-regularize")


def _record(fn, M) -> dict:
    from isodet.cli import _report_json

    try:
        doc = _report_json(M, fn(M), True, True)
    except Exception as exc:  # a raise is an outcome to compare, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}
    reg = doc.pop("regularization")
    return {**doc, **{f"regularization.{k}": v for k, v in reg.items()}}


def dump(tree: Path, seeds: list[int]) -> None:
    """One JSON line per report of the tree's own isodet, to stdout."""
    import corpus
    import isodet

    for mod in (isodet, corpus):
        if not Path(mod.__file__).resolve().is_relative_to(tree):
            sys.exit(f"imported {mod.__name__} from {mod.__file__}, not from {tree}")
    for workload in WORKLOADS:
        for seed in seeds:
            for row in corpus.build_corpus(workload, seed):
                for it in row:
                    key = f"{workload}/{seed}/{it.key}:{it.spec}"
                    routes = [("decide", isodet.decide)]
                    if workload in GAMMA_WORKLOADS:
                        routes.append(("gamma", isodet.decide_gamma_shift))
                    for route, fn in routes:
                        print(json.dumps({"key": key, "route": route, **_record(fn, it.matrix)}))


def reports(tree: Path, seeds: str) -> dict:
    tree = tree.resolve()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "perfbench")])}
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--dump", str(tree),
                          "--seeds", seeds],
                         env=env, capture_output=True, text=True, check=True).stdout
    docs = {}
    for line in out.splitlines():
        doc = json.loads(line)
        docs[doc.pop("key"), doc.pop("route")] = doc
    return docs


def differences(old: dict, new: dict) -> list[tuple[str, str, str]]:
    """(key, route, what) for each report only one tree has and for each
    field that differs between the trees' reports."""
    diffs = [(key, route, f"only in {'old' if (key, route) in old else 'new'}")
             for key, route in sorted(old.keys() ^ new.keys())]
    for key, route in sorted(old.keys() & new.keys()):
        a, b = old[key, route], new[key, route]
        diffs += [(key, route, f"{field} differs") for field in sorted(a.keys() | b.keys())
                  if a.get(field) != b.get(field)]
    return diffs


def tally(diffs: list[tuple[str, str, str]]) -> list[str]:
    """One line per (route, what) with its number of differences, most first."""
    counts = Counter((route, what) for _key, route, what in diffs)
    return [f"{n:6d}  {route}: {what}" for (route, what), n in counts.most_common()]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", nargs="?", type=Path, help="source tree with src/ and perfbench/")
    ap.add_argument("new", nargs="?", type=Path)
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated corpus seeds")
    ap.add_argument("--dump", metavar="TREE", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump is not None:
        dump(args.dump, [int(s) for s in args.seeds.split(",")])
        return 0
    if args.old is None or args.new is None:
        ap.error("OLD_TREE and NEW_TREE are required")
    docs = []
    for tree in (args.old, args.new):
        try:
            docs.append(reports(tree, args.seeds))
        except subprocess.CalledProcessError as exc:
            print(f"report_diff: cannot dump the reports of {tree}:\n{exc.stderr}", file=sys.stderr)
            return 2
    old, new = docs
    diffs = differences(old, new)
    for key, route, what in diffs:
        print(f"{key} {route}: {what}")
    print(f"{len(old.keys() & new.keys())} reports compared on seeds {args.seeds}; "
          f"{len(diffs)} differences")
    for line in tally(diffs):
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
