"""scripts/report_diff.py records the CLI's own JSON payload."""

import importlib.util
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from isodet import GF, QQ, decide, decide_gamma_shift, direct_sum, jordan, symplectic_unit
from isodet.cli import main, print_document

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "report_diff.py"

_spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def cli_record(M, method, capsys, monkeypatch):
    """The payload of `decide --json --certificate --emit-regularization`,
    with its regularization flattened as the script flattens it."""
    print_document(M)
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    main(["decide", "-", "--json", "--certificate", "--emit-regularization", "--method", method])
    doc = json.loads(capsys.readouterr().out)
    reg = doc.pop("regularization")
    return {**doc, **{f"regularization.{k}": v for k, v in reg.items()}}


@pytest.mark.parametrize("field", [QQ, GF(3), GF(10007)], ids=repr)
@pytest.mark.parametrize("fn, method", [(decide, "regularize"),
                                        (decide_gamma_shift, "gamma-shift")], ids=["decide", "gamma"])
def test_record_is_the_cli_payload(field, fn, method, capsys, monkeypatch):
    # an odd singular block, so the decide route carries a certificate
    for M in (direct_sum([jordan(3, 0, field), symplectic_unit(1, field)]), symplectic_unit(2, field)):
        assert report_diff._record(fn, M) == cli_record(M, method, capsys, monkeypatch)


def test_a_raise_is_recorded():
    def broken(M):
        raise ZeroDivisionError("no route")

    assert report_diff._record(broken, jordan(1, 0)) == {"error": "ZeroDivisionError: no route"}


def test_empty_tree_exits_2(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path), str(ROOT), "--seeds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert str(tmp_path) in proc.stderr and "Traceback" in proc.stderr


def test_dump_refuses_an_isodet_from_outside_the_tree(tmp_path, monkeypatch):
    # as when the package is installed and the tree has no src/isodet
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    with pytest.raises(SystemExit, match=f"isodet .*not from {re.escape(str(tmp_path))}"):
        report_diff.dump(tmp_path, [1])


def test_tally_counts_differences_per_route_and_field():
    old = {("a", "decide"): {"x": 1, "y": 2}, ("a", "gamma"): {"x": [], "y": 2},
           ("b", "gamma"): {"x": [], "y": 3}, ("c", "decide"): {"x": 1}}
    new = {("a", "decide"): {"x": 1, "y": 2}, ("a", "gamma"): {"x": None, "y": 2},
           ("b", "gamma"): {"x": None, "y": 4}, ("d", "decide"): {"x": 1}}
    diffs = report_diff.differences(old, new)
    assert diffs == [("c", "decide", "only in old"), ("d", "decide", "only in new"),
                     ("a", "gamma", "x differs"), ("b", "gamma", "x differs"),
                     ("b", "gamma", "y differs")]
    assert report_diff.tally(diffs) == ["     2  gamma: x differs", "     1  decide: only in old",
                                        "     1  decide: only in new", "     1  gamma: y differs"]
    assert report_diff.tally([]) == []
