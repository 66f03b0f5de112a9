"""Source layout rules that no behavioural test can see."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "isodet"
# the stored rows and row denominators of a Matrix, and the constructors
# that take rows already in that form
STORAGE = re.compile(r"\._(rows|dens|of|over)\b")


def storage_uses(src: Path) -> list[str]:
    """module:line for every line outside exactmat.py that touches the
    stored form of a Matrix."""
    return [f"{path.name}:{i}"
            for path in sorted(src.glob("*.py")) if path.name != "exactmat.py"
            for i, line in enumerate(path.read_text().splitlines(), 1) if STORAGE.search(line)]


def test_only_exactmat_touches_the_stored_form():
    assert storage_uses(SRC) == []
