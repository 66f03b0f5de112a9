"""Known-answer corpus: congruence-scrambled direct sums of canonical blocks.

The singular sizes and the odd-block counts c_k of a direct sum are the
sums of those of its summands (Horn & Sergeichuk, LAA 416, 2006), so a sum
is accepted (every isometry has determinant one) exactly when every summand
is.  A congruence keeps the verdict, so scrambling a sum with
``random_congruence`` keeps its label and hides the block structure.

A class is a field tag and a spec, ``"J3+J2+G11"`` for example.  Summand
codes and their labels, checked against ``enumerate_isometries`` over F_3
and F_5 by ``test_bench.py``:

    J<s>  jordan(s, 0)         accepted iff s is even
    G<r>  gamma(r)             accepted iff r is even
    S<m>  symplectic_unit(m)   always accepted (size 2m)

``R<n>`` is a uniformly random n x n matrix with no label; the benchmark
takes the brute-force oracle's verdict as its reference.

A workload's schedule lists 15 classes, one round.  The corpus holds
INSTANCES[workload] independently drawn copies of each class, all from the
seed.  The more copies, the less a run's latencies depend on the seed;
q-regularize holds only three because its matrices are slow to build.
Each round runs one copy of every class, so every run sees the same mix of
sizes and block structures.  With 15 classes the median and the 90th
percentile fall in the middle of one class's band of latencies, and the
schedules put classes of similar latency around both, so that neither sits
on a steep step between two bands.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from isodet import blocks, oracle
from isodet.exactmat import Field, GF, Matrix, QQ, rank

INSTANCES = {"q-regularize": 3, "fp-crosscheck": 6, "small-exhaustive": 8}

# Classes are listed by decide latency, in clusters of 5 (the median falls
# in the middle one), 2, and 3 (the 90th percentile falls in the middle one).
SCHEDULES: dict[str, list[tuple[str, str]]] = {
    # Q, n = 8..24: nine of fifteen hold singular J_s(0) blocks, four of
    # them of odd size; five of the six regular sums pass the skew test.
    "q-regularize": [
        ("Q", "S4"), ("Q", "G5+G3"), ("Q", "J2+G2+S2"), ("Q", "J2+J1+G3+G2"), ("Q", "G6+G6"),
        ("Q", "J1+J2+G8"), ("Q", "J2+J2+G4+S2"), ("Q", "G8+S4"), ("Q", "J2+G6+S2"),
        ("Q", "G10+G8"),
        ("Q", "J3+G9"), ("Q", "J5+J2+G7"),
        ("Q", "J2+J2+G12"), ("Q", "G12+S6"), ("Q", "J2+G10+S3"),
    ],
    # F_3 at n = 4..6 (J2 beside an even regular block exhausts the gamma
    # route), F_7 at n = 8..16, F_10007 at n = 8..26.
    "fp-crosscheck": [
        ("F3", "J2+G2"), ("F3", "J2+G4"), ("F3", "J3+G3"), ("F7", "J2+J1+G3+G2"),
        ("F10007", "G5+G3"),
        ("F7", "J4+G4+S1"), ("F7", "G8+S4"), ("F7", "J2+J2+G4+S2"), ("F10007", "J2+J2+G4+S2"),
        ("F7", "J4+J3+G5"),
        ("F10007", "J2+J2+G12"), ("F10007", "J3+J2+G13"),
        ("F10007", "J3+J2+G9+S5"), ("F10007", "J4+J3+G11+S3"), ("F10007", "J3+J2+G11+S5"),
    ],
    # n = 2..3 over F_3 and F_5, canonical and random; one 3x3 F_5 class,
    # whose 5^9-candidate oracle scan costs as much as the rest together.
    # Random 3x3 matrices differ most in decide time, so only one class is.
    "small-exhaustive": [
        ("F3", "J2"), ("F3", "G1+G1"), ("F3", "S1"), ("F3", "R2"), ("F3", "R2"),
        ("F5", "G2"), ("F5", "J1+J1"), ("F5", "R2"), ("F5", "R2"),
        ("F3", "G3"), ("F3", "J2+G1"), ("F3", "J1+S1"), ("F3", "J1+G1+G1"), ("F3", "R3"),
        ("F5", "J3"),
    ],
}


@dataclass(frozen=True)
class Item:
    key: str
    spec: str
    matrix: Matrix
    label: bool | None  # None for random matrices

    @property
    def n(self) -> int:
        return self.matrix.nrows


def parse_field(tag: str) -> Field:
    return QQ if tag == "Q" else GF(int(tag[1:]))


def summands(spec: str) -> list[tuple[str, int]]:
    return [(code[0], int(code[1:])) for code in spec.split("+")]


def summand_size(kind: str, k: int) -> int:
    return 2 * k if kind == "S" else k


def summand_label(kind: str, k: int) -> bool:
    return kind == "S" or k % 2 == 0


def spec_label(spec: str) -> bool | None:
    parts = summands(spec)
    if parts[0][0] == "R":
        return None
    return all(summand_label(kind, k) for kind, k in parts)


def block(kind: str, k: int, field: Field) -> Matrix:
    if kind == "J":
        return blocks.jordan(k, 0, field)
    if kind == "G":
        return blocks.gamma(k, field)
    if kind == "S":
        return blocks.symplectic_unit(k, field)
    raise ValueError(f"unknown summand code {kind}{k}")


def _random_matrix(field: Field, n: int, rng: random.Random) -> Matrix:
    return Matrix(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)])


def build_corpus(workload: str, seed: int, instances: int | None = None) -> list[list[Item]]:
    """corpus[i][c] is copy i of class c of the workload's schedule.

    The same (workload, seed) gives the same matrices.  Canonical sums are
    built once per class and scrambled once per copy.
    """
    schedule = SCHEDULES[workload]
    if instances is None:
        instances = INSTANCES[workload]
    rng = random.Random(f"{workload}/{seed}")
    sums: dict[tuple[str, str], Matrix] = {}
    corpus = []
    for i in range(instances):
        row = []
        for c, (tag, spec) in enumerate(schedule):
            field = parse_field(tag)
            parts = summands(spec)
            if parts[0][0] == "R":
                M = _random_matrix(field, parts[0][1], rng)
            else:
                if (tag, spec) not in sums:
                    sums[tag, spec] = blocks.direct_sum(
                        [block(kind, k, field) for kind, k in parts], field=field)
                M = oracle.random_congruence(sums[tag, spec], rng.getrandbits(63))
            row.append(Item(f"{c}.{i}", f"{tag}:{spec}", M, spec_label(spec)))
        corpus.append(row)
    return corpus


def entry_bits(M: Matrix) -> int:
    """Largest bit length of an entry (numerator or denominator over Q)."""
    if M.field.is_rational:
        return max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                    for row in M.rows for x in row), default=0)
    return max((x.bit_length() for row in M.rows for x in row), default=0)


def properties(corpus: list[list[Item]]) -> dict:
    """Input properties a change may depend on, as shares of the corpus.

    For canonical sums they follow from the summands: an odd singular block
    is a J of odd size, and M - M^T is nonsingular exactly when every
    summand has even size (test_bench.py checks the rule by rank).  Random
    matrices count in the skew share by rank; their verdict is the oracle's,
    so the accepted and odd-singular shares are over the labelled matrices.
    """
    items = [it for row in corpus for it in row]
    labelled = [it for it in items if it.label is not None]
    odd_singular = 0
    skew_nonsingular = 0
    for it in items:
        parts = summands(it.spec.split(":")[1])
        if parts[0][0] == "R":
            M = it.matrix
            skew_nonsingular += rank(M - M.transpose()) == M.nrows
        else:
            odd_singular += any(kind == "J" and k % 2 == 1 for kind, k in parts)
            skew_nonsingular += all(summand_size(kind, k) % 2 == 0 for kind, k in parts)
    total = len(items)
    return {
        "items": total,
        "random": total - len(labelled),
        "accepted_share": round(sum(it.label for it in labelled) / len(labelled), 4),
        "odd_singular_share": round(odd_singular / len(labelled), 4),
        "skew_nonsingular_share": round(skew_nonsingular / total, 4),
        "n_histogram": dict(sorted(Counter(it.n for it in items).items())),
        "max_entry_bits": max(entry_bits(it.matrix) for it in items),
    }
