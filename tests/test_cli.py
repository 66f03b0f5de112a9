import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isodet.cli import (DocumentError, build_parser, check_entry, main, parse_document,
                        print_document)
from isodet.oracle import DEFAULT_LIMIT
from isodet import GF, QQ, Matrix, regularize


Z2_DOC = '{"field": "Q", "rows": [["0", "1"], ["-1", "0"]]}'
I2_DOC = '{"field": "Q", "rows": [["1", "0"], ["0", "1"]]}'
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv, stdin=None):
    """`python -m isodet.cli ARGV...` in a fresh interpreter, output captured."""
    return subprocess.run([sys.executable, "-m", "isodet.cli", *argv], input=stdin,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_json_roundtrip(self):
        M = parse_document(Z2_DOC)
        assert M == Matrix(QQ, [[0, 1], [-1, 0]])

    def test_text_form(self):
        M = parse_document("2 F3\n0 1\n2 0\n")
        assert M == Matrix(GF(3), [[0, 1], [2, 0]])

    def test_rationals_stay_exact(self):
        M = parse_document('{"field": "Q", "rows": [["1/3", "0"], ["0", "2/7"]]}')
        assert M[0, 0] * 3 == 1 and M[1, 1] * 7 == 2

    def test_print_parse_roundtrip(self, capsys):
        M = Matrix(QQ, [["1/2", -3], [0, 5]])
        print_document(M)
        M2 = parse_document(capsys.readouterr().out)
        assert M2 == M
        print_document(M, as_text=True)
        M3 = parse_document(capsys.readouterr().out)
        assert M3 == M

    def test_bad_field(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["decide", "-"],
                           stdin='{"field": "F2", "rows": [["1"]]}',
                           monkeypatch=monkeypatch)
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("doc, message", [
        ('[["1", "0"], ["0", "1"]]', 'JSON document needs "field" and "rows"'),
        ("-1 Q\n", "bad size '-1'"),
        ('{"field": "Q", "rows": [1, 2]}', '"rows" must be a list of lists'),
    ], ids=["json-array", "negative-size", "rows-not-lists"])
    def test_input_error_names_the_fault(self, capsys, monkeypatch, doc, message):
        code, out, err = run(capsys, ["decide", "-"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 2 and out == "" and err.startswith("error: ") and message in err

    def test_nonsquare_rejected(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["decide", "-"],
                           stdin='{"field": "Q", "rows": [["1", "2"]]}',
                           monkeypatch=monkeypatch)
        assert code == 2

    @pytest.mark.parametrize("doc", [
        '{"field": "Q", "rows": [["1/0"]]}',
        '{"field": "F1000000000000000000000000000057", "rows": [["1"]]}',
        '{"field": "F' + "9" * 5000 + '", "rows": [["1"]]}',
        '{"field": "Q", "rows": [[' + "1" * 5000 + ']]}',
    ], ids=["zero-denominator", "modulus-above-limit", "huge-modulus", "huge-json-int"])
    def test_bad_input_exits_two_without_traceback(self, doc):
        proc = run_cli("decide", "-", stdin=doc)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "error" in proc.stderr

    @pytest.mark.parametrize("entry", ["1e1000000", "1e-1000000", "1E4301", "1e0_4_3_0_1"])
    def test_huge_exponent_exits_two_fast(self, entry):
        doc = json.dumps({"field": "Q", "rows": [[entry]]})
        start = time.perf_counter()
        proc = run_cli("decide", "-", stdin=doc)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and "exponent" in proc.stderr

    # Fraction reads an exponent in any Unicode decimal digits: Arabic-Indic
    # 10^5 and 4301, fullwidth 12345, Devanagari zeros before 4301
    @pytest.mark.parametrize("entry", ["1e١٠٠٠٠٠", "1E-٤٣٠١", "2.5e１２３４５", "1e०००४३०१"],
                             ids=["arabic-indic", "negative", "fullwidth", "leading-zeros"])
    def test_non_ascii_exponent_beyond_the_bound(self, entry):
        with pytest.raises(DocumentError, match="exponent"):
            check_entry(entry)

    def test_non_ascii_exponent_within_the_bound(self):
        for entry in ("1e٤٣٠٠", "1e٠٠٠٠٠٠٠٠٥", "1e１_０"):
            assert check_entry(entry) == entry
        M = parse_document('{"field": "Q", "rows": [["1e٣", "2.5e-٢"], ["1E１_０", "0e٠"]]}')
        assert M[0, 0] == 1000 and M[0, 1] * 40 == 1 and M[1, 0] == 10 ** 10

    def test_non_ascii_exponent_exits_two(self, capsys, monkeypatch):
        doc = json.dumps({"field": "Q", "rows": [["1e١٠٠٠٠٠"]]}, ensure_ascii=False)
        code, out, err = run(capsys, ["decide", "-"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 2 and out == "" and "exponent" in err

    def test_small_exponents_parse(self):
        M = parse_document('{"field": "Q", "rows": [["1e3", "2.5e-2"], ["1E4300", "0e0"]]}')
        assert M[0, 0] == 1000 and M[0, 1] * 40 == 1 and M[1, 0] == 10 ** 4300

    @pytest.mark.parametrize("entry", ["1.0000000000000001", "1e-400", "-2.5E-2", "7"])
    def test_number_entries_read_as_written(self, capsys, monkeypatch, entry):
        # a JSON number is the same entry as its text in a string, not the
        # float it rounds to: [[1, 1], [1.0000000000000001, 1]] is nonsingular
        docs = [f'{{"field": "Q", "rows": [[1, 1], [{x}, 1]]}}' for x in (entry, f'"{entry}"')]
        assert parse_document(docs[0]) == parse_document(docs[1])
        reports = [run(capsys, ["decide", "-", "--json"], stdin=doc, monkeypatch=monkeypatch)
                   for doc in docs]
        assert reports[0] == reports[1]

    def test_large_prime_modulus(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["decide", "-"],
                           stdin='{"field": "F1000000000000000003", "rows": [["0", "1"], ["-1", "0"]]}',
                           monkeypatch=monkeypatch)
        assert code == 0 and "all-det-one" in out


# Strategies listed twice in one_of are drawn twice as often: entries like
# "a/0" and well-formed JSON documents should come up in most runs.
def _entry():
    ratio = st.builds(lambda a, b: f"{a}/{b}", st.integers(-3, 3), st.integers(-2, 2))
    junk = st.one_of(st.sampled_from(["nan", "inf", "1e3", " 2 ", "", "0x1"]), st.text(max_size=4),
                     st.integers(), st.floats(), st.none(), st.booleans())
    return st.one_of(ratio, ratio, st.integers(-10, 10).map(str), junk)


def _documents():
    field = st.one_of(st.just("Q"), st.sampled_from(["F3", "F5"]),
                      st.sampled_from(["F2", "F9", "F0", "F", "Fx", "R", "F" + "9" * 40]),
                      st.text(max_size=5))
    square = st.integers(0, 3).flatmap(
        lambda n: st.lists(st.lists(_entry(), min_size=n, max_size=n), min_size=n, max_size=n))
    rows = st.one_of(square, st.lists(st.lists(_entry(), max_size=3), max_size=3))
    json_doc = st.builds(lambda f, r: json.dumps({"field": f, "rows": r}), field, rows)
    text_doc = st.builds(lambda head, r: head + "\n" + "\n".join(" ".join(map(str, x)) for x in r),
                         st.one_of(st.sampled_from(["1 Q", "2 F3", "x Q"]), st.text(max_size=8)), rows)
    return st.one_of(json_doc, json_doc, text_doc, st.text(max_size=40),
                     st.text(max_size=40).map(lambda t: "{" + t))


class TestParseFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_documents())
    @example('{"field": "Q", "rows": [["1/0"]]}')
    @example("1 Q\n0/0")
    def test_only_document_errors(self, text):
        try:
            M = parse_document(text)
        except DocumentError:
            return
        assert M.is_square


class TestDecideCommand:
    def test_member_exit_zero(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["decide", "-"], stdin=Z2_DOC, monkeypatch=monkeypatch)
        assert code == 0
        assert "method: regularize" in out

    def test_nonmember_exit_one(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["decide", "-"], stdin=I2_DOC, monkeypatch=monkeypatch)
        assert code == 1

    def test_json_schema(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["decide", "-", "--json", "--certificate"],
                           stdin='{"field": "Q", "rows": [["0"]]}', monkeypatch=monkeypatch)
        assert code == 1
        doc = json.loads(out)
        for key in ("verdict", "all_det_one", "method", "field", "size",
                    "singular_sizes", "rank_sequence", "odd_block_counts",
                    "gamma_used", "gamma_modulus", "certificate", "certificate_verified"):
            assert key in doc
        assert doc["certificate"] == [["-1"]]
        assert doc["certificate_verified"] is True

    def test_gamma_shift_method(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["decide", "-", "--method", "gamma-shift", "--json"],
                           stdin=I2_DOC, monkeypatch=monkeypatch)
        assert code == 1
        doc = json.loads(out)
        assert doc["method"] == "gamma-shift"
        assert doc["gamma_used"] == "0"

    def test_gamma_shift_extension_point(self, capsys, monkeypatch):
        # J_2(0) + [[0, 1], [2, 0]] over F_3: D(t) vanishes on all of F_3
        doc = '{"field": "F3", "rows": [["0","0","0","0"],["1","0","0","0"],' \
              '["0","0","0","1"],["0","0","2","0"]]}'
        code, out, _ = run(capsys, ["decide", "-", "--method", "gamma-shift", "--json"],
                           stdin=doc, monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma_used"] is None and doc["gamma_modulus"] == "x^2 + 1"

    @pytest.mark.parametrize("method", ["regularize", "gamma-shift"])
    def test_regularization_json_for_both_methods(self, capsys, monkeypatch, method):
        rows = [["1", "2", "0"], ["0", "0", "0"], ["3", "0", "0"]]
        if method == "regularize":
            # decide's report carries its regularization; the CLI reuses it
            import isodet.cli
            monkeypatch.setattr(isodet.cli, "regularize",
                                lambda M: pytest.fail("regularized a second time"))
        code, out, _ = run(capsys, ["decide", "-", "--json", "--emit-regularization",
                                    "--method", method],
                           stdin=json.dumps({"field": "Q", "rows": rows}), monkeypatch=monkeypatch)
        M = Matrix(QQ, rows)
        reg = regularize(M)
        assert json.loads(out)["regularization"] == {
            "transform": [[str(x) for x in r] for r in reg.transform.rows],
            "regular_part": [[str(x) for x in r] for r in reg.regular_part.rows],
            "singular_sizes": list(reg.singular_sizes),
            "verified": True,
        }

    def test_emit_regularization(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["decide", "-", "--emit-regularization", "--json"],
                           stdin='{"field": "Q", "rows": [["0", "0"], ["1", "0"]]}',
                           monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["regularization"]["singular_sizes"] == [2]
        assert doc["regularization"]["verified"] is True


    def test_a_failed_postcondition_is_never_reported(self, capsys, monkeypatch):
        # "verified" is regularize's own postcondition: a congruence that
        # misses the canonical form raises before anything is printed
        import importlib

        module = importlib.import_module("isodet.regularize")  # the name isodet.regularize is the function
        monkeypatch.setattr(module, "_decompose",
                            lambda G, K: (Matrix.identity(G.field, G.nrows), []))
        with pytest.raises(module.RegularizationError, match="postcondition"):
            run(capsys, ["decide", "-", "--emit-regularization", "--json"],
                stdin='{"field": "Q", "rows": [["1", "0"], ["0", "0"]]}', monkeypatch=monkeypatch)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_gamma_route_leaves_singular_sizes_out(self, capsys, monkeypatch, flags):
        # J_3(0): decide finds one singular block of size 3, the gamma
        # route does not compute the sizes
        doc = '{"field": "Q", "rows": [["0","0","0"],["1","0","0"],["0","1","0"]]}'
        outs = {}
        for method in ("regularize", "gamma-shift"):
            code, outs[method], _ = run(capsys, ["decide", "-", "--method", method, *flags],
                                        stdin=doc, monkeypatch=monkeypatch)
            assert code == 1
        if flags:
            assert json.loads(outs["regularize"])["singular_sizes"] == [3]
            assert json.loads(outs["gamma-shift"])["singular_sizes"] is None
        else:
            assert "singular sizes: [3]\n" in outs["regularize"]
            assert "singular sizes: not computed on this route\n" in outs["gamma-shift"]

    @pytest.mark.parametrize("method", ["regularize", "gamma-shift"])
    def test_empty_form_is_a_member(self, capsys, monkeypatch, method):
        code, out, _ = run(capsys, ["decide", "-", "--method", method, "--json"],
                           stdin='{"field":"Q","rows":[]}', monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["all_det_one"] is True

    def test_auto_method_rejected(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["decide", "-", "--method", "auto"], stdin=Z2_DOC,
                           monkeypatch=monkeypatch)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_long_output_entry_exits_two(self, flags):
        # the regular part of [[10^4300]] has 4301 digits, beyond int -> str
        doc = json.dumps({"field": "Q", "rows": [["1E4300"]]})
        proc = run_cli("decide", "-", *flags, "--emit-regularization", stdin=doc)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.startswith("error:")
        proc = run_cli("decide", "-", *flags, stdin=doc)
        assert proc.returncode == 1


class TestBlocksCommand:
    def test_gamma_doc(self, capsys):
        code, out, _ = run(capsys, ["blocks", "gamma", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == [["0", "0", "1"], ["0", "-1", "-1"], ["1", "1", "0"]]

    def test_jordan_doc(self, capsys):
        code, out, _ = run(capsys, ["blocks", "jordan", "2", "1"])
        assert json.loads(out)["rows"] == [["1", "0"], ["1", "1"]]

    def test_symplectic_doc(self, capsys):
        code, out, _ = run(capsys, ["blocks", "symplectic", "1"])
        assert json.loads(out)["rows"] == [["0", "1"], ["-1", "0"]]

    def test_frobenius_doc(self, capsys):
        code, out, _ = run(capsys, ["blocks", "frobenius", "--", "-1,1", "2"])
        assert json.loads(out)["rows"] == [["0", "-1"], ["1", "2"]]

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, ["blocks", "gamma", "zero"])
        assert code == 2

    @pytest.mark.parametrize("params", [["1,2"], ["1"], ["1,1", "0"]],
                             ids=["not-monic", "degree-0", "power-0"])
    def test_bad_frobenius_spec_exits_two(self, capsys, params):
        code, out, err = run(capsys, ["blocks", "frobenius", "--", *params])
        assert code == 2 and out == ""
        assert err.startswith("error: bad parameters for frobenius: frobenius ")

    def test_large_gamma_is_prompt(self):
        # the block is written down from its formula, with no elimination
        start = time.perf_counter()
        proc = run_cli("blocks", "gamma", "200", "--text")
        assert time.perf_counter() - start < 10.0
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "200 Q" and lines[1].split() == ["0"] * 199 + ["1"]

    @pytest.mark.parametrize("argv", [["jordan", "2", "1/0"], ["frobenius", "--", "1/0,1"]],
                             ids=["jordan", "frobenius"])
    def test_zero_denominator_exits_two_without_traceback(self, argv):
        proc = run_cli("blocks", *argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.startswith("error:")


    @pytest.mark.parametrize("argv", [["jordan", "2", "1e١٠٠٠٠٠"],
                                      ["frobenius", "--", "1e١٠٠٠٠٠,1"]],
                             ids=["jordan", "frobenius"])
    def test_non_ascii_exponent_exits_two(self, capsys, argv):
        code, out, err = run(capsys, ["blocks", *argv])
        assert code == 2 and out == "" and "exponent" in err


class TestOracleCommand:
    def test_symplectic_f3(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["oracle", "-", "--json"],
                           stdin='{"field": "F3", "rows": [["0", "1"], ["2", "0"]]}',
                           monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["group_order"] == 24 and doc["all_det_one"] is True

    def test_identity_exit_one(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["oracle", "-"],
                           stdin='{"field": "F3", "rows": [["1", "0"], ["0", "1"]]}',
                           monkeypatch=monkeypatch)
        assert code == 1

    def test_default_limit_is_the_oracle_default(self):
        assert build_parser().parse_args(["oracle", "-"]).limit == DEFAULT_LIMIT

    def test_rational_rejected(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["oracle", "-"], stdin=Z2_DOC, monkeypatch=monkeypatch)
        assert code == 2
        assert err.startswith("error:") and "F<p>" in err

    def test_budget_exit_two(self, capsys, monkeypatch):
        rows = [["0"] * 5 for _ in range(5)]
        doc = json.dumps({"field": "F3", "rows": rows})
        code, _, err = run(capsys, ["oracle", "-"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 2

    def test_five_by_five_within_budget_answers(self, capsys, monkeypatch):
        # Gamma_5 over F_3: 18 isometries, half of them with determinant -1
        _, doc, _ = run(capsys, ["blocks", "gamma", "5", "--field", "F3"])
        code, out, _ = run(capsys, ["oracle", "-", "--json"], stdin=doc, monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out) == {"group_order": 18, "det_counts": {"1": 9, "2": 9},
                                   "all_det_one": False, "verdict": "det-not-one-exists"}


class TestErrorExits:
    """An unreadable path or an unprintable result exits 2 with one `error:`
    line and no output."""

    @staticmethod
    def check(capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.startswith("error: ")
        return err

    @pytest.mark.parametrize("kind", ["missing", "not-utf8"])
    def test_unreadable_path(self, capsys, tmp_path, kind):
        path = tmp_path / "doc"
        if kind == "not-utf8":
            path.write_bytes(b'{"field": "Q", "rows": [["\xff"]]}')
        assert "cannot read" in self.check(capsys, ["decide", str(path)])

    def test_output_entry_past_4300_digits(self, capsys):
        # the companion matrix of (x + 10^100)^50 has an entry of 5001 digits
        err = self.check(capsys, ["blocks", "frobenius", "1" + "0" * 100 + ",1", "50"])
        assert "50x50 matrix" in err and "4300 digits" in err


class TestUnreadableInput:
    @pytest.mark.parametrize("command", [["decide"], ["oracle"], ["blocks", "directsum"],
                                         ["blocks", "skewsum", "-"]],
                             ids=["decide", "oracle", "directsum", "skewsum"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_exits_two_without_traceback(self, tmp_path, command, kind):
        path = tmp_path
        if kind == "not-utf8":
            path = tmp_path / "junk"
            path.write_bytes(bytes(range(256)))
        proc = run_cli(*command, str(path), stdin=Z2_DOC)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr and proc.stderr.startswith("error:")


class TestAgreement:
    def test_decide_matches_oracle_exit_codes(self, capsys, monkeypatch):
        # scripted integration check over a slice of M_2(F_3)
        import itertools
        for bits in itertools.product(range(3), repeat=4):
            rows = [[str(bits[0]), str(bits[1])], [str(bits[2]), str(bits[3])]]
            doc = json.dumps({"field": "F3", "rows": rows})
            c1, _, _ = run(capsys, ["decide", "-"], stdin=doc, monkeypatch=monkeypatch)
            c2, _, _ = run(capsys, ["oracle", "-"], stdin=doc, monkeypatch=monkeypatch)
            assert c1 == c2
