"""The README's examples, run as written: the python block under "## Library"
and the shell sessions under "## CLI".  A public name that is removed or
renamed breaks these tests, not only the README."""

import ast
import io
import re
import shlex
import sys
import tokenize
from pathlib import Path

from isodet.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_blocks(section: str, lang: str) -> list[str]:
    """The fenced `lang` blocks of the README section titled `section`."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, re.S)


def literal_comments(src: str) -> dict[int, object]:
    """The comments of src that are python literals, by line number."""
    found = {}
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type == tokenize.COMMENT:
            try:
                found[tok.start[0]] = ast.literal_eval(tok.string[1:].strip())
            except (ValueError, TypeError, SyntaxError):
                pass
    return found


def test_library_example():
    # each statement runs in order; an expression whose line ends in a
    # literal comment must equal that literal
    (src,) = code_blocks("Library", "python")
    expected = literal_comments(src)
    env, checked = {}, 0
    for node in ast.parse(src).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), env)
            if node.end_lineno in expected:
                assert value == expected[node.end_lineno], ast.unparse(node)
                checked += 1
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), env)
    assert checked


def shell_sessions(block: str) -> list[tuple[str, list[str]]]:
    """(command, printed lines) for each `$ ` line of a shell block."""
    sessions = []
    for line in block.splitlines():
        if line.startswith("$ "):
            sessions.append((line[2:], []))
        elif line and sessions:
            sessions[-1][1].append(line)
    return sessions


def prints_in_order(expected: list[str], lines: list[str]) -> bool:
    """Whether the runs of expected between "..." lines appear in lines, in
    order, each run as consecutive lines."""
    runs = [[]]
    for line in expected:
        if line == "...":
            runs.append([])
        else:
            runs[-1].append(line)
    pos = 0
    for run in runs:
        k = len(run)
        pos = next((i + k for i in range(pos, len(lines) - k + 1) if lines[i:i + k] == run),
                   None)
        if pos is None:
            return False
    return True


def test_cli_examples(tmp_path, capsys, monkeypatch):
    (block,) = code_blocks("CLI", "sh")
    runs = []
    for command, printed in shell_sessions(block):
        stdin, _, command = command.rpartition(" | ")
        argv = shlex.split(command)
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text("\n".join(printed))
            continue
        assert argv[0] == "isodet"
        if stdin:
            monkeypatch.setattr(sys, "stdin", io.StringIO(shlex.split(stdin)[1]))
        # a file the session wrote is read from where it was written
        code = main([str(tmp_path / a) if (tmp_path / a).is_file() else a for a in argv[1:]])
        out = capsys.readouterr().out.splitlines()
        assert prints_in_order(printed, out), (command, out)
        runs.append((code, out))
    # exit code 0 when every isometry has determinant one, 1 when not
    (z2_code, z2_out), (zero_code, zero_out) = runs
    assert z2_code == 0 and "verdict: all-det-one" in z2_out
    assert zero_code == 1 and prints_in_order(["certificate (VERIFIED):", "  -1"], zero_out)
