#!/usr/bin/env python3
"""Compare the decision reports of two source trees on the benchmark corpora.

For each tree a subprocess imports that tree's `src/isodet` and
`perfbench/corpus.py`, builds the three corpora (`q-regularize`,
`fp-crosscheck`, `small-exhaustive`) for every seed, and dumps one JSON
line per report: every `decide` report (verdict, singular sizes, rank
sequence, counts, certificate, and the regularization's S and B) and, on
`fp-crosscheck` and `q-regularize`, every `decide_gamma_shift` report.  The
script then lists each field that differs between the trees and exits 1 if
any does.

Example (a second checkout of the parent commit in ../parent):
    python3 scripts/report_diff.py ../parent . --seeds 1,2,3
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("q-regularize", "fp-crosscheck", "small-exhaustive")
# the gamma route is dumped over F_p and over Q
GAMMA_WORKLOADS = ("fp-crosscheck", "q-regularize")


def _rows(M):
    return None if M is None else [[M.field.to_str(x) for x in row] for row in M.rows]


def _record(fn, M) -> dict:
    try:
        rep = fn(M)
    except Exception as exc:  # a raise is an outcome to compare, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}
    reg = rep.regularization
    return {
        "verdict": rep.all_det_one,
        "sizes": list(rep.singular_sizes),
        "rank_sequence": list(rep.rank_sequence),
        "counts": list(rep.odd_block_counts),
        "gamma_used": None if rep.gamma_used is None else str(rep.gamma_used),
        "gamma_modulus": None if rep.gamma_modulus is None else [str(c) for c in rep.gamma_modulus],
        "certificate": _rows(rep.certificate),
        "transform": _rows(reg.transform) if reg else None,
        "regular_part": _rows(reg.regular_part) if reg else None,
    }


def dump(seeds: list[int]) -> None:
    """One JSON line per report of the tree on sys.path, to stdout."""
    from corpus import build_corpus
    from isodet import decide, decide_gamma_shift

    for workload in WORKLOADS:
        for seed in seeds:
            for row in build_corpus(workload, seed):
                for it in row:
                    key = f"{workload}/{seed}/{it.key}:{it.spec}"
                    routes = [("decide", decide)]
                    if workload in GAMMA_WORKLOADS:
                        routes.append(("gamma", decide_gamma_shift))
                    for route, fn in routes:
                        print(json.dumps({"key": key, "route": route, **_record(fn, it.matrix)}))


def reports(tree: Path, seeds: list[int]) -> dict:
    tree = tree.resolve()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "perfbench")])}
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--dump",
                          ",".join(map(str, seeds))],
                         cwd=tree, env=env, capture_output=True, text=True, check=True).stdout
    docs = {}
    for line in out.splitlines():
        doc = json.loads(line)
        docs[doc.pop("key"), doc.pop("route")] = doc
    return docs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", nargs="?", type=Path, help="source tree with src/ and perfbench/")
    ap.add_argument("new", nargs="?", type=Path)
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated corpus seeds")
    ap.add_argument("--dump", metavar="SEEDS", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump is not None:
        dump([int(s) for s in args.dump.split(",")])
        return 0
    if args.old is None or args.new is None:
        ap.error("OLD_TREE and NEW_TREE are required")
    seeds = [int(s) for s in args.seeds.split(",")]
    old, new = reports(args.old, seeds), reports(args.new, seeds)
    diffs = [f"{key} {route}: only in {'old' if (key, route) in old else 'new'}"
             for key, route in sorted(old.keys() ^ new.keys())]
    for key, route in sorted(old.keys() & new.keys()):
        a, b = old[key, route], new[key, route]
        diffs += [f"{key} {route}: {field} differs" for field in sorted(a.keys() | b.keys())
                  if a.get(field) != b.get(field)]
    for line in diffs:
        print(line)
    print(f"{len(old.keys() & new.keys())} reports compared on seeds {args.seeds}; "
          f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
