"""Spans around isodet's layers, recorded from the benchmark's side.

isodet's modules import kernels by name (``from .exactmat import rank``), so
a wrapper must replace a function in every module whose code looks it up,
not only where it is defined.  ``Tracer.installed`` does that for the
functions listed below and for two Matrix methods, and puts the originals
back on exit, so untraced calls run the unmodified program.

A span's self time is its duration minus the durations of the spans it
encloses.  The program runs on one thread, so spans nest, and a stack of
child-time accumulators gives every self time exactly.  Totals per span
name and one record per op stay in memory until ``write``.

Two sets of spans: SETUP_TARGETS during the corpus build (the blocks and
the scrambling congruence; their kernels are not wrapped there, so their
self time is the whole cost of set-up work), OP_TARGETS during the timed
ops.  The ``direct_sum``/``jordan`` calls inside ``regularize``'s
postcondition are not wrapped during ops and count as ``regularize`` self
time.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from corpus import entry_bits

OP_TARGETS = {
    "exactmat": ("rank", "rref", "nullspace", "solve", "inverse", "det", "det_poly",
                 "power_rank_sequence"),
    "regularize": ("regularize", "verify_congruence"),
    "decide": ("decide", "decide_gamma_shift", "skew_fast_path", "odd_unipotent_counts",
               "certificate_singular", "verify_certificate"),
    "oracle": ("enumerate_isometries",),
    "cli": ("parse_document",),
}
# span name -> Matrix method
METHODS = {"matmul": "__mul__", "apply_to_vec": "apply_to_vec"}
SETUP_TARGETS = {
    "blocks": ("jordan", "gamma", "symplectic_unit", "direct_sum"),
    "oracle": ("random_congruence",),
}
MODULES = ("exactmat", "decide", "regularize", "blocks", "oracle", "cli")
# kernels whose matrix argument feeds exactmat.max_entry_bits
ELIMINATION = ("rank", "rref", "nullspace", "solve", "inverse", "det")


def layer_functions() -> list[str]:
    """Span names reported as per-layer metrics, ``<module>.<function>``."""
    return ([f"{mod}.{fn}" for mod, fns in OP_TARGETS.items() for fn in fns]
            + [f"exactmat.{name}" for name in METHODS] + ["oracle.random_congruence"])


class Tracer:
    def __init__(self):
        self.phases: dict[str, dict[str, list]] = {}
        self.current: dict[str, list] = {}
        self.ops: list[dict] = []
        self.max_entry_bits = 0
        self.gamma_tries = 0
        self.gamma_exhausted = 0
        self.oracle_candidates = 0
        self.oracle_isometries = 0
        self._stack: list[float] = []
        self._t0 = perf_counter()
        self._patches = {"setup": self._plan(SETUP_TARGETS, {}), "ops": self._plan(OP_TARGETS, METHODS)}

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, on_error=None):
        stack = self._stack
        tracer = self

        def span(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dur = perf_counter() - start
                child = stack.pop()
                rec = tracer.current[name]
                rec[0] += 1
                rec[1] += dur - child
                rec[2] += dur
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def _note_bits(self, args):
        bits = entry_bits(args[0])
        if bits > self.max_entry_bits:
            self.max_entry_bits = bits

    def _note_gamma(self, args, report):
        # candidates run 0, 1, 2, ... (skipping -1 over F_p), so the shift
        # used is also the number of candidates rejected before it
        if report.gamma_used is not None:
            self.gamma_tries += int(report.gamma_used) + 1

    def _note_exhausted(self, exc):
        if type(exc).__name__ == "GammaExhaustedError":
            self.gamma_exhausted += 1

    def _note_oracle(self, args, summary):
        M = args[0]
        self.oracle_candidates += M.field.p ** (M.nrows * M.nrows)
        self.oracle_isometries += summary.group_order

    def _hooks(self, name):
        fn = name.split(".")[1]
        if name.startswith("exactmat.") and fn in ELIMINATION:
            return {"before": self._note_bits}
        if name == "decide.decide_gamma_shift":
            return {"after": self._note_gamma, "on_error": self._note_exhausted}
        if name == "oracle.enumerate_isometries":
            return {"after": self._note_oracle}
        return {}

    def _plan(self, targets, methods):
        """(owner, attribute, original, wrapper) for every place a traced
        function is looked up."""
        mods = {m: importlib.import_module(f"isodet.{m}") for m in MODULES}
        plan = []
        for mod, fns in targets.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(mods[mod], fn)
                wrapper = self._wrap(name, original, **self._hooks(name))
                for owner in mods.values():
                    if owner.__dict__.get(fn) is original:
                        plan.append((owner, fn, original, wrapper))
        matrix = mods["exactmat"].Matrix
        for name, attr in methods.items():
            original = matrix.__dict__[attr]
            plan.append((matrix, attr, original, self._wrap(f"exactmat.{name}", original)))
        return plan

    @contextmanager
    def installed(self, phase: str):
        """Wrap the phase's targets and record their spans under ``phase``."""
        self.current = self.phases.setdefault(phase, defaultdict(lambda: [0, 0.0, 0.0]))
        plan = self._patches[phase]
        try:
            for owner, attr, _original, wrapper in plan:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _wrapper in plan:
                setattr(owner, attr, original)

    # -- ops --------------------------------------------------------------

    def op(self, route: str, key: str, fn, *args):
        """Run fn(*args) as the root span of one op and keep its record."""
        stack = self._stack
        stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            inner = stack.pop()
            self.ops.append({"route": route, "item": key, "start_s": round(start - self._t0, 6),
                             "wall_s": end - start, "spans_s": inner})

    def totals(self, phase: str, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, inclusive seconds) of one span name."""
        calls, self_s, total_s = self.phases.get(phase, {}).get(name, (0, 0.0, 0.0))
        return calls, self_s, total_s

    def self_coverage(self) -> float:
        """Share of the traced ops' wall time covered by layer spans."""
        wall = sum(o["wall_s"] for o in self.ops)
        return sum(o["spans_s"] for o in self.ops) / wall if wall else 0.0

    def write(self, path, header: dict) -> None:
        doc = {
            **header,
            "phases": {phase: {name: {"calls": c, "self_s": s, "total_s": t}
                               for name, (c, s, t) in sorted(spans.items())}
                       for phase, spans in self.phases.items()},
            "ops": self.ops,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1))
