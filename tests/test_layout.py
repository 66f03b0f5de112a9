"""Source layout rules that no behavioural test can see."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import isodet
from isodet import Matrix

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "isodet"
# the stored rows and row denominators of a Matrix, and the constructors
# that take rows already in that form
STORAGE = re.compile(r"\._(rows|dens|of|over)\b")
# the benchmark's tracer wraps isodet functions and Matrix methods by name
TRACED_TABLES = ("OP_TARGETS", "METHODS", "SETUP_TARGETS", "MODULES")


def storage_uses(src: Path) -> list[str]:
    """module:line for every line outside exactmat.py that touches the
    stored form of a Matrix."""
    return [f"{path.name}:{i}"
            for path in sorted(src.glob("*.py")) if path.name != "exactmat.py"
            for i, line in enumerate(path.read_text().splitlines(), 1) if STORAGE.search(line)]


def test_only_exactmat_touches_the_stored_form():
    assert storage_uses(SRC) == []


def private_kernel_imports(src: Path) -> list[str]:
    """module:line for every import of a _-prefixed name from exactmat by
    another module; the elimination kernel's internals stay in exactmat."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py")) if path.name != "exactmat.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module in ("exactmat", "isodet.exactmat")
            and any(alias.name.startswith("_") for alias in node.names)]


def test_only_exactmat_imports_kernel_internals():
    assert private_kernel_imports(SRC) == []


def hidden_parameters(src: Path) -> list[str]:
    """module.function(parameter) for every public function (a name without
    a leading _, methods included) that takes a _-prefixed parameter."""
    return [f"{path.stem}.{node.name}({arg.arg})"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if arg.arg.startswith("_")]


def test_public_functions_take_no_hidden_parameters():
    # a public entry point states its whole contract; a private knob on it
    # is a second entry point the callers cannot see
    assert hidden_parameters(SRC) == []


def elimination_routines(exactmat: Path) -> set[str]:
    """The module-level functions of exactmat that reach the elimination
    kernel `_eliminate`, directly or through one another."""
    tree = ast.parse(exactmat.read_text())
    names = {node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = {"_eliminate"}
    while more := {fn for fn, used in names.items() if used & found} - found:
        found |= more
    return found


def test_blocks_imports_no_elimination():
    # the canonical blocks are built from their formulas, never checked
    routines = elimination_routines(SRC / "exactmat.py")
    assert {"rank", "inverse_times", "power_rank_sequence", "det"} <= routines
    imported = {alias.name for node in ast.walk(ast.parse((SRC / "blocks.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.module in ("exactmat", "isodet.exactmat")
                for alias in node.names}
    assert imported and imported.isdisjoint(routines)


def traced_tables() -> dict:
    """The literal name tables of perfbench/tracing.py, read from its source
    without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in TRACED_TABLES}


def test_benchmark_traced_names_exist():
    # each name is looked up where the tracer looks it up: as a module
    # attribute of isodet.<module>, and in Matrix's own __dict__
    tables = traced_tables()
    assert set(tables) == set(TRACED_TABLES)
    modules = {m: importlib.import_module(f"isodet.{m}") for m in tables["MODULES"]}
    missing = [f"{mod}.{fn}" for targets in (tables["OP_TARGETS"], tables["SETUP_TARGETS"])
               for mod, fns in targets.items() for fn in fns
               if not callable(getattr(modules[mod], fn, None))]
    missing += [f"Matrix.{attr}" for attr in tables["METHODS"].values()
                if attr not in Matrix.__dict__]
    assert missing == []


def test_import_loads_numpy():
    # the benchmark reads the numpy version from sys.modules after importing isodet
    code = "import sys, isodet; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "True"


def test_public_names_resolve_once():
    # a name retired from the package cannot linger in __all__
    assert len(isodet.__all__) == len(set(isodet.__all__))
    assert [name for name in isodet.__all__ if not hasattr(isodet, name)] == []
