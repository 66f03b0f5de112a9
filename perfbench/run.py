#!/usr/bin/env python3
"""Known-answer benchmark of isodet.

    python3 perfbench/run.py --workload q-regularize --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this directory, and the CLI runs as ``python -m isodet.cli`` with
``src`` on PYTHONPATH.  Workloads (schedules in corpus.py, reasons in
BENCHMARK.json):

    q-regularize      decide over Q, n = 8..24
    fp-crosscheck     decide and decide_gamma_shift over F_3, F_7, F_10007
    small-exhaustive  decide and enumerate_isometries at n = 2..3 over F_3
                      and F_5, rounds interleaved with cold CLI runs

Every input has an answer known without isodet: a label from its summands,
or for a random matrix the brute-force oracle's verdict.  Every op's
verdict is checked against it, every certificate with verify_certificate,
and the routes of one matrix must agree.  An op that raises, disagrees or
returns an unverified certificate is a failed op; a wrong verdict or a bad
certificate also makes the result incorrect and the exit code 1.

The load comes from this one process, one op at a time (a closed loop with
one client); CLI subprocesses run one at a time.  A run goes round by round
(one scrambled copy of each class of the schedule) until --seconds have
passed and every timed route has MIN_SAMPLES samples.  Latencies include
ops that raised, timed until they raised.

--trace 0 measures the end-to-end metrics.  The JSON result carries the
ones every workload has and none of which is ever zero: setup_s (import,
plus the median of SETUP_REPS corpus builds with their CLI documents),
verdicts_per_s, decide_ms_p50/p90 and peak_rss_mb.  The latencies of the
other routes a workload runs (gamma_ms_*, oracle_ms_*, cli_ms_*),
failed_ratio and wrong_verdicts are printed as ``metric`` lines before it;
``failed``/``attempted`` in the JSON give the same failed ratio.

--trace 1 runs whole passes over the corpus, each op once untraced and once
traced, and reports per-layer metrics per pass; the spans go to
perfbench/out/.  The last stdout line is the JSON result; the lines before
it give the environment, the input properties and every metric with its
unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SAMPLES = 100   # per timed route and run: p90 then has 10 samples beyond it
SETUP_REPS = 3      # setup_s is the median of this many corpus builds
PROBE_REPS = 5      # interpreter and import probes in a traced run

ROUTES = {
    "q-regularize": ("decide",),
    "fp-crosscheck": ("decide", "gamma"),
    "small-exhaustive": ("decide", "oracle"),
}
CLI_WORKLOADS = ("small-exhaustive",)

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "decide_ms_p50": "ms",
    "decide_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    from tracing import layer_functions

    units = {}
    for name in layer_functions():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "exactmat.max_entry_bits": "bits",
        "decide.gamma_tries": "count",
        "decide.gamma_exhausted": "count",
        "oracle.candidates": "count",
        "oracle.candidates_per_s": "1/s",
        "oracle.isometries": "count",
        "blocks.self_s": "s",
        "cli.interpreter_ms": "ms",
        "cli.import_ms": "ms",
        "trace.overhead_ratio": "ratio",
        "trace.self_coverage": "ratio",
    })
    return units


# -- the program under test --------------------------------------------------


class Program:
    """isodet's public calls, looked up on their modules at call time so that
    the tracer's wrappers are seen.  Each route returns (verdict, certificate
    verified or None)."""

    def __init__(self):
        self.decide_mod = importlib.import_module("isodet.decide")
        self.oracle_mod = importlib.import_module("isodet.oracle")
        self.cli_mod = importlib.import_module("isodet.cli")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def decide(self, M):
        # what `isodet decide --certificate` does
        d = self.decide_mod
        rep = d.decide(M)
        verified = None if rep.certificate is None else d.verify_certificate(M, rep.certificate)
        return rep.all_det_one, verified

    def gamma(self, M):
        return self.decide_mod.decide_gamma_shift(M).all_det_one, None

    def oracle(self, M):
        return self.oracle_mod.enumerate_isometries(M).all_det_one, None

    def cli(self, path):
        """A cold `python -m isodet.cli decide --json --certificate FILE`."""
        proc = subprocess.run(
            [sys.executable, "-m", "isodet.cli", "decide", "--json", "--certificate", str(path)],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120)
        return _cli_verdict(proc.returncode, proc.stdout)

    def cli_in_process(self, path):
        """The same command through cli.main, so its layers can be traced."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli_mod.main(["decide", "--json", "--certificate", str(path)])
        return _cli_verdict(code, buf.getvalue())

    def probe_ms(self, code: str) -> float:
        """Median wall time of `python -c CODE`, in ms."""
        times = []
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                           check=True, capture_output=True, timeout=120)
            times.append(time.perf_counter() - t0)
        return 1000 * statistics.median(times)


def _cli_verdict(code: int, stdout: str):
    if code not in (0, 1):
        raise RuntimeError(f"CLI exit code {code}")
    doc = json.loads(stdout.strip().splitlines()[-1])
    verdict = doc["all_det_one"]
    expected = "all-det-one" if verdict else "det-not-one-exists"
    if verdict != (code == 0) or doc["verdict"] != expected:
        raise RuntimeError("CLI exit code and JSON verdict disagree")
    return verdict, doc["certificate_verified"]


def write_document(item, path: Path) -> None:
    M = item.matrix
    tag = "Q" if M.field.p is None else f"F{M.field.p}"
    path.write_text(json.dumps({"field": tag, "rows": [[str(x) for x in r] for r in M.rows]}))


# -- checking ------------------------------------------------------------------


class Tally:
    """Ops attempted and failed, and latency samples per route."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.bad_certificates = 0
        self.disagreements = 0
        self.raised: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)

    def check(self, route, seconds, out, error, reference):
        """Count one op; return its verdict, or None if it raised."""
        self.attempted += 1
        self.samples[route].append(seconds)
        if error is not None:
            self.failed += 1
            self.raised[f"{route}:{error}"] += 1
            return None
        verdict, verified = out
        wrong = reference is not None and verdict != reference
        self.wrong += wrong
        self.bad_certificates += verified is False
        self.failed += wrong or verified is False
        return verdict

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.bad_certificates == 0


def timed(fn, *args):
    t0 = time.perf_counter()
    try:
        out, error = fn(*args), None
    except Exception as exc:  # a raising op is a failed op, not a benchmark crash
        out, error = None, type(exc).__name__
    return time.perf_counter() - t0, out, error


class Runner:
    """Runs ops untraced, or (with a tracer) once untraced and once traced."""

    def __init__(self, program, tally, tracer=None):
        self.program = program
        self.tally = tally
        self.tracer = tracer
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self._turn = 0

    def call(self, route, key, arg):
        fn = getattr(self.program, route)
        if self.tracer is None:
            return [timed(fn, arg)]
        # which twin runs first alternates from one matrix to the next (the
        # same for every route of a matrix), so neither twin always runs cold
        results = {}
        for traced in ((False, True) if self._turn % 2 else (True, False)):
            if traced:
                with self.tracer.installed("ops"):
                    results[traced] = timed(self.tracer.op, route, key, fn, arg)
                self.traced_s += results[traced][0]
            else:
                results[traced] = timed(fn, arg)
                self.untraced_s += results[traced][0]
        return [results[False], results[True]]

    def item(self, item, routes, references):
        """Every route on one matrix, checked against its known answer."""
        self._turn += 1
        runs = {route: self.call(route, item.key, item.matrix) for route in routes}
        reference = item.label
        if reference is None:  # random matrix: the oracle's verdict is the answer
            answers = [out[0] for _, out, error in runs.get("oracle", ()) if error is None]
            reference = answers[0] if answers else None
        references[item.key] = reference
        verdicts = set()
        for route, results in runs.items():
            for seconds, out, error in results:
                verdict = self.tally.check(route, seconds, out, error, reference)
                if verdict is not None:
                    verdicts.add(verdict)
        self.tally.disagreements += len(verdicts) > 1

    def cli(self, item, path, reference):
        route = "cli" if self.tracer is None else "cli_in_process"
        self._turn += 1
        for seconds, out, error in self.call(route, item.key, path):
            self.tally.check("cli", seconds, out, error, reference)


# -- phases ----------------------------------------------------------------------


def rounds_for(seconds, tally, routes, steps, min_samples):
    """Run rounds, each of them every step in turn, until `seconds` passed
    and each route has min_samples; return each step's round durations."""
    start = time.perf_counter()
    durations = [[] for _ in steps]
    k = 0
    while True:
        for step, times in zip(steps, durations):
            t0 = time.perf_counter()
            step(k)
            times.append(time.perf_counter() - t0)
        k += 1
        if (time.perf_counter() - start >= seconds
                and all(len(tally.samples[r]) >= min_samples for r in routes)):
            return durations


def passes_for(seconds, run_pass):
    """Whole passes while the next one is expected to end within `seconds`."""
    start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        run_pass()
        passes += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes, now - start


def build(workload, seed, workdir):
    import corpus

    items = corpus.build_corpus(workload, seed)
    docs = {}
    if workload in CLI_WORKLOADS:
        workdir.mkdir(parents=True, exist_ok=True)
        for row in items:
            for it in row:
                docs[it.key] = workdir / f"{it.key}.json"
                write_document(it, docs[it.key])
    return items, docs


def percentile_ms(samples, q):
    return 1000 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run_workload(workload, seed, seconds, trace, import_s, min_samples=MIN_SAMPLES):
    """One benchmark run; returns (report lines, result dict)."""
    import corpus
    from tracing import Tracer

    routes = ROUTES[workload]
    workdir = OUT / f"work-{os.getpid()}"
    tally = Tally()
    program = Program()
    tracer = Tracer() if trace else None
    runner = Runner(program, tally, tracer)
    references: dict[str, bool | None] = {}
    lines = []
    try:
        if tracer is None:
            setups, builds = [], []
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                items, docs = build(workload, seed, workdir)
                setups.append(time.perf_counter() - t0)
                builds.append([it.matrix for row in items for it in row])
            if any(b != builds[0] for b in builds):
                raise RuntimeError("the corpus build is not deterministic")
            setup_s = import_s + statistics.median(setups)
        else:
            with tracer.installed("setup"):
                items, docs = build(workload, seed, workdir)
        lines.append("inputs: " + json.dumps(corpus.properties(items)))

        def run_round(k):
            for it in items[k % len(items)]:
                runner.item(it, routes, references)

        def run_cli(k):
            for it in items[k % len(items)]:
                if references.get(it.key) is not None:
                    runner.cli(it, docs[it.key], references[it.key])

        # small-exhaustive alternates in-process rounds with CLI rounds on
        # the same copies, so both sample the whole run
        steps = [run_round, run_cli] if docs else [run_round]
        if tracer is None:
            timed_routes = routes + ("cli",) if docs else routes
            durations = rounds_for(seconds, tally, timed_routes, steps, min_samples)
            # each round timed at its step's median round, so that a stall
            # of the machine in one round does not move the rate
            verdicts = len(items[0]) * len(durations[0]) + len(tally.samples["cli"])
            verdicts_per_s = verdicts / sum(len(d) * statistics.median(d) for d in durations)
            metrics = {
                "setup_s": setup_s,
                "verdicts_per_s": verdicts_per_s,
                "decide_ms_p50": percentile_ms(tally.samples["decide"], 50),
                "decide_ms_p90": percentile_ms(tally.samples["decide"], 90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
            extra = {}
            for route in ("gamma", "oracle", "cli"):
                if tally.samples[route]:
                    extra[f"{route}_ms_p50"] = (percentile_ms(tally.samples[route], 50), "ms")
                    extra[f"{route}_ms_p90"] = (percentile_ms(tally.samples[route], 90), "ms")
        else:
            def run_pass():
                for k in range(len(items)):
                    for step in steps:
                        step(k)

            passes, elapsed = passes_for(seconds, run_pass)
            metrics, units = layer_metrics(tracer, passes, runner, program)
            extra = {"passes": (passes, "count"), "traced_run_s": (elapsed, "s")}
            tracer.write(OUT / f"trace-{workload}-seed{seed}.json",
                         {"workload": workload, "seed": seed, "passes": passes})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = {route: len(s) for route, s in sorted(tally.samples.items()) if s}
    extra.update({
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "wrong_verdicts": (tally.wrong, "count"),
        "bad_certificates": (tally.bad_certificates, "count"),
        "route_disagreements": (tally.disagreements, "count"),
    })
    lines.append("samples: " + json.dumps(samples))
    if tally.raised:
        lines.append("raised: " + json.dumps(dict(sorted(tally.raised.items()))))
    for name, value in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        lines.append(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return lines, result


def layer_metrics(tracer, passes, runner, program):
    """Per-layer metrics per pass over the corpus, from the traced twins."""
    from tracing import layer_functions

    units = _per_layer_units()
    metrics = {}
    for name in layer_functions():
        phase = "setup" if name == "oracle.random_congruence" else "ops"
        per = 1 if phase == "setup" else passes  # set-up runs once
        calls, self_s, _ = tracer.totals(phase, name)
        metrics[f"{name}.calls"] = calls / per
        metrics[f"{name}.self_s"] = self_s / per
    _, _, oracle_s = tracer.totals("ops", "oracle.enumerate_isometries")
    metrics.update({
        "exactmat.max_entry_bits": tracer.max_entry_bits,
        "decide.gamma_tries": tracer.gamma_tries / passes,
        "decide.gamma_exhausted": tracer.gamma_exhausted / passes,
        "oracle.candidates": tracer.oracle_candidates / passes,
        "oracle.candidates_per_s": tracer.oracle_candidates / oracle_s if oracle_s else 0.0,
        "oracle.isometries": tracer.oracle_isometries / passes,
        "blocks.self_s": sum(s for name, (_, s, _) in tracer.phases["setup"].items()
                             if name.startswith("blocks.")),
        "cli.interpreter_ms": program.probe_ms("pass"),
        "cli.import_ms": program.probe_ms("import isodet.cli"),
        "trace.overhead_ratio": runner.traced_s / runner.untraced_s,
        "trace.self_coverage": tracer.self_coverage(),
    })
    return metrics, units


# -- entry point -------------------------------------------------------------------


def environment(args) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "isodet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__, "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git; None if
    the checkout is not a git repository."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with contextlib.suppress(OSError):
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUTES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "isodet" / "__init__.py").is_file():
        print(f"perfbench: no isodet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import isodet
    import_s = time.perf_counter() - t0
    if Path(isodet.__file__).resolve().parent != SRC / "isodet":
        print(f"perfbench: imported isodet from {isodet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print("env: " + json.dumps(environment(args)), flush=True)
    lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace, import_s)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
