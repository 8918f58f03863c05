"""No ``assert`` statement in the library: ``python -O`` strips them, and a
check that vanishes there is no certificate.  Every check in src/dgmf is an
explicit raise."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dgmf"


def test_no_assert_statement_in_src():
    found = [f"{path.relative_to(SRC.parent)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(SRC.rglob("*.py"))) > 1
    assert not found, f"assert statements in the library: {found}"
