"""Self-tests of the benchmark.

    python -m pytest perfbench

They check that the corpus is a function of the seed, that the summand
labels the known answers rest on agree with the brute-force oracle, and
that a run prints exactly the metrics BENCHMARK.json declares.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
from isodet import GF, QQ, enumerate_isometries  # noqa: E402
from isodet.exactmat import rank  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SUMMANDS = [("J", 1), ("J", 2), ("J", 3), ("G", 1), ("G", 2), ("G", 3), ("S", 1)]


def _matrices(workload, seed):
    return [it.matrix for row in corpus.build_corpus(workload, seed) for it in row]


@pytest.mark.parametrize("workload", sorted(corpus.SCHEDULES))
def test_corpus_repeats_for_one_seed_and_differs_across_seeds(workload):
    first = _matrices(workload, 1)
    assert _matrices(workload, 1) == first
    other = _matrices(workload, 2)
    assert sum(a != b for a, b in zip(first, other)) > len(first) // 2


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("kind,k", SUMMANDS)
def test_summand_labels_match_the_oracle(kind, k, p):
    M = corpus.block(kind, k, GF(p))
    assert enumerate_isometries(M).all_det_one == corpus.summand_label(kind, k)


@pytest.mark.parametrize("p", [3, 5])
def test_small_sums_match_the_oracle(p):
    # the canonical classes of small-exhaustive, scrambled, over both fields
    for row in corpus.build_corpus("small-exhaustive", 7, instances=1):
        for it in row:
            if it.label is not None and it.spec.startswith(f"F{p}:"):
                assert enumerate_isometries(it.matrix).all_det_one == it.label, it.spec


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5), GF(10007)], ids=repr)
def test_skew_part_is_nonsingular_exactly_for_even_summands(field):
    for kind in "JGS":
        for k in range(1, 7):
            M = corpus.block(kind, k, field)
            expected = corpus.summand_size(kind, k) % 2 == 0
            assert (rank(M - M.transpose()) == M.nrows) == expected, (kind, k)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.ROUTES)
    assert sorted(run.ROUTES) == sorted(corpus.SCHEDULES)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    _, result = run.run_workload("small-exhaustive", 1, 0, trace, import_s=0.0, min_samples=2)
    assert result["correct"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[key]}
