"""Command line front end: matrix ingestion, decision reports, canonical
block generation and brute-force oracle runs.

Matrix documents are JSON objects {"field": "Q"|"F3"|..., "rows": [["0","1"],
...]} with entries kept as strings so rationals stay exact; a whitespace text
form (first line "n field", then n rows) is accepted too.  Exit codes: 0 when
every isometry has determinant one, 1 when not, 2 on usage, input or output
errors (an output entry too long to print).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .blocks import (
    direct_sum,
    frobenius,
    gamma,
    jordan,
    kronecker_pair_blocks,
    skew_sum,
    symplectic_unit,
)
from .decide import (
    DecisionReport,
    decide,
    decide_gamma_shift,
    verify_certificate,
)
from .exactmat import QQ, Field, FieldError, Matrix, Poly
from .oracle import DEFAULT_LIMIT, BudgetExceededError, enumerate_isometries
from .regularize import regularize

VERDICTS = {True: "all-det-one", False: "det-not-one-exists"}


class DocumentError(ValueError):
    pass


class OutputError(ValueError):
    """An output entry too long to render as a decimal string."""


def parse_field(tag: str) -> Field:
    tag = tag.strip()
    if tag == "Q":
        return QQ
    m = re.fullmatch(r"F(\d+)", tag)
    if not m:
        raise DocumentError(f"unknown field tag {tag!r} (use Q or F<p>)")
    try:
        return Field(int(m.group(1)))
    except ValueError as exc:  # a FieldError, or too many digits
        raise DocumentError(str(exc)) from None


# Fraction("1e1000000") builds a 3.3-million-bit integer, and the cost grows
# faster than the exponent: bound it by the limit Python puts on int(str).
# Like Fraction, the exponent may be written in any Unicode decimal digits.
MAX_EXPONENT = sys.int_info.default_max_str_digits
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def check_entry(entry: str) -> str:
    """The entry unchanged, or DocumentError if its decimal exponent
    exceeds MAX_EXPONENT in magnitude."""
    m = _EXPONENT.search(entry)
    if m:
        digits = m.group(1).replace("_", "")
        # drop the leading zeros of any script; int() reads each digit
        digits = digits[next((i for i, ch in enumerate(digits) if int(ch)), len(digits)):]
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise DocumentError(f"entry exponent beyond {MAX_EXPONENT}: {entry[:40]!r}")
    return entry


def parse_document(text: str) -> Matrix:
    """A matrix from either the JSON or the plain text document form."""
    stripped = text.lstrip()
    if not stripped:
        raise DocumentError("empty input")
    if stripped[0] in "{[":
        try:
            # a number literal keeps its text: a float would round it first
            doc = json.loads(text, parse_float=str)
        except (ValueError, RecursionError) as exc:
            raise DocumentError(f"bad JSON: {exc}") from None
        if not isinstance(doc, dict) or "field" not in doc or "rows" not in doc:
            raise DocumentError('JSON document needs "field" and "rows"')
        field = parse_field(str(doc["field"]))
        rows = doc["rows"]
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise DocumentError('"rows" must be a list of lists')
        str_rows = [[str(x) for x in r] for r in rows]
    else:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        head = lines[0].split()
        if len(head) != 2:
            raise DocumentError('text form starts with a "n field" line')
        try:
            n = int(head[0])
            if n < 0:
                raise ValueError
        except ValueError:
            raise DocumentError(f"bad size {head[0]!r}") from None
        field = parse_field(head[1])
        if len(lines) != n + 1:
            raise DocumentError(f"expected {n} rows, found {len(lines) - 1}")
        str_rows = [lines[1 + i].split() for i in range(n)]
    n = len(str_rows)
    if any(len(r) != n for r in str_rows):
        raise DocumentError("matrix must be square")
    for r in str_rows:
        for x in r:
            check_entry(x)
    try:
        return Matrix(field, str_rows)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad entry: {exc}") from None


def matrix_rows_str(M: Matrix) -> list[list[str]]:
    try:
        return [[M.field.to_str(x) for x in row] for row in M.rows]
    except ValueError as exc:  # str(int) refuses more than 4300 digits
        raise OutputError(f"{M.nrows}x{M.ncols} matrix: {exc}") from None


def print_document(M: Matrix, as_text: bool = False) -> None:
    rows = matrix_rows_str(M)
    if as_text:
        print(f"{M.nrows} {M.field!r}")
        for row in rows:
            print(" ".join(row))
    else:
        print(json.dumps({"field": repr(M.field), "rows": rows}))


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None


def _report_json(M: Matrix, rep: DecisionReport, want_cert: bool, emit_reg: bool) -> dict:
    f = M.field
    out = {
        "verdict": VERDICTS[rep.all_det_one],
        "all_det_one": rep.all_det_one,
        "method": rep.method.value,
        "field": repr(f),
        "size": M.nrows,
        "singular_sizes": None if rep.singular_sizes is None else list(rep.singular_sizes),
        "rank_sequence": list(rep.rank_sequence),
        "odd_block_counts": list(rep.odd_block_counts),
        "gamma_used": None if rep.gamma_used is None else f.to_str(rep.gamma_used),
        "gamma_modulus": (None if rep.gamma_modulus is None
                          else Poly(f, rep.gamma_modulus).to_str("x")),
        "certificate": None,
        "certificate_verified": None,
    }
    if want_cert and rep.certificate is not None:
        out["certificate"] = matrix_rows_str(rep.certificate)
        out["certificate_verified"] = verify_certificate(M, rep.certificate)
    if emit_reg:
        reg = rep.regularization if rep.regularization is not None else regularize(M)
        out["regularization"] = {
            "transform": matrix_rows_str(reg.transform),
            "regular_part": matrix_rows_str(reg.regular_part),
            "singular_sizes": list(reg.singular_sizes),
            # regularize raises RegularizationError unless S is nonsingular
            # and S^T M S is the canonical form, so a result is verified
            "verified": True,
        }
    return out


def _cmd_decide(args) -> int:
    M = parse_document(_read_input(args.matrix))
    rep = decide_gamma_shift(M) if args.method == "gamma-shift" else decide(M)
    payload = _report_json(M, rep, args.certificate, args.emit_regularization)
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"verdict: {payload['verdict']}")
        print(f"method: {payload['method']}")
        sizes = payload["singular_sizes"]
        print(f"singular sizes: {'not computed on this route' if sizes is None else sizes}")
        if payload["rank_sequence"]:
            print(f"rank sequence: {payload['rank_sequence']}")
        print(f"odd block counts: {payload['odd_block_counts']}")
        if payload["gamma_used"] is not None:
            print(f"gamma used: {payload['gamma_used']}")
        if payload["gamma_modulus"] is not None:
            print(f"gamma used: x mod ({payload['gamma_modulus']})")
        if args.certificate:
            if payload["certificate"] is None:
                print("certificate: none available on this path")
            else:
                status = "VERIFIED" if payload["certificate_verified"] else "FAILED"
                print(f"certificate ({status}):")
                for row in payload["certificate"]:
                    print("  " + " ".join(row))
        if args.emit_regularization:
            reg = payload["regularization"]
            print(f"regularization sizes: {reg['singular_sizes']} "
                  f"(verified: {reg['verified']})")
            print("transform:")
            for row in reg["transform"]:
                print("  " + " ".join(row))
            print("regular part:")
            for row in reg["regular_part"]:
                print("  " + " ".join(row))
    return 0 if rep.all_det_one else 1


def _parse_coeffs(field: Field, text: str) -> Poly:
    return Poly(field, [field.convert(check_entry(c)) for c in text.split(",")])


def _cmd_blocks(args) -> int:
    field = parse_field(args.field)
    kind = args.kind
    params = args.params
    try:
        if kind == "jordan":
            size, lam = int(params[0]), params[1]
            M = jordan(size, field.convert(check_entry(lam)), field)
        elif kind == "gamma":
            M = gamma(int(params[0]), field)
        elif kind == "frobenius":
            poly = _parse_coeffs(field, params[0])
            power = int(params[1]) if len(params) > 1 else 1
            M = frobenius(poly, power)
        elif kind == "symplectic":
            M = symplectic_unit(int(params[0]), field)
        elif kind == "skewsum":
            A = parse_document(_read_input(params[0]))
            B = parse_document(_read_input(params[1]))
            M = skew_sum(A, B)
        elif kind == "directsum":
            parts = [parse_document(_read_input(p)) for p in params]
            M = direct_sum(parts, field=field)
        elif kind == "kronecker":
            F, G = kronecker_pair_blocks(int(params[0]), field)
            print_document(F, as_text=args.text)
            print_document(G, as_text=args.text)
            return 0
        else:
            raise DocumentError(f"unknown block kind {kind!r}")
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad parameters for {kind}: {exc}") from None
    print_document(M, as_text=args.text)
    return 0


def _cmd_oracle(args) -> int:
    M = parse_document(_read_input(args.matrix))
    if M.field.p is None:
        raise DocumentError("oracle needs a document over a prime field F<p>, not Q")
    summary = enumerate_isometries(M, limit=args.limit)
    tally = {str(k): v for k, v in sorted(summary.det_counts.items())}
    if args.json:
        print(json.dumps({
            "group_order": summary.group_order,
            "det_counts": tally,
            "all_det_one": summary.all_det_one,
            "verdict": VERDICTS[summary.all_det_one],
        }))
    else:
        print(f"isometry group order: {summary.group_order}")
        print(f"determinant tally: {tally}")
        print(f"verdict: {VERDICTS[summary.all_det_one]}")
    return 0 if summary.all_det_one else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isodet",
        description="Decide whether every isometry of a bilinear form has determinant one.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decide", help="run the decision procedure on a matrix document")
    d.add_argument("matrix", help="path to a matrix document, or - for stdin")
    d.add_argument("--method", choices=["regularize", "gamma-shift"], default="regularize")
    d.add_argument("--certificate", action="store_true",
                   help="print a determinant -1 isometry when one is constructed")
    d.add_argument("--emit-regularization", action="store_true",
                   help="also print the regularizing transform and regular part")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=_cmd_decide)

    b = sub.add_parser("blocks", help="emit a canonical block as a matrix document")
    b.add_argument("kind", choices=["jordan", "gamma", "frobenius", "skewsum",
                                    "directsum", "symplectic", "kronecker"])
    b.add_argument("params", nargs="*",
                   help="jordan SIZE LAMBDA | gamma SIZE | frobenius COEFFS [POWER] "
                        "(comma separated, constant first) | symplectic M | "
                        "skewsum FILE FILE | directsum FILE... | kronecker T")
    b.add_argument("--field", default="Q")
    b.add_argument("--text", action="store_true", help="plain text instead of JSON")
    b.set_defaults(func=_cmd_blocks)

    o = sub.add_parser("oracle", help="enumerate the isometry group over F_p")
    o.add_argument("matrix", help="path to a matrix document, or - for stdin")
    o.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                   help="budget of (partial matrix, vector) pairs the column-by-column "
                        "search tests; the default admits every form over F3 up to 4x4 "
                        "and over F5 and F7 up to 3x3, and some larger ones")
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=_cmd_oracle)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (DocumentError, OutputError, FieldError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
