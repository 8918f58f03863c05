"""``Poly._trusted`` stores a terms dict as it is, with no zero filter.  A
zero coefficient handed to it would break what every Poly relies on (no
zero coefficient is stored: ``bool``, ``==``, ``weight`` and the printed
text read the terms as they are), so it is the one way round
``Poly.__init__`` in the library, and only the callers listed here use it.
Each builds a coefficient only where it is nonzero: ``_poly`` keeps the
finished coefficients with ``any(ints)``, and ``_unit_homotopy`` scales
only nonzero values by a nonzero W(p)^-1.  Their outputs are checked
against the filtering constructor in tests/test_poly.py and
tests/test_factorizations.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dgmf"

# (file, enclosing function, kind) of every allowed way round Poly.__init__
ALLOWED = {
    ("poly.py", "Poly.__init__", "terms assigned"),
    ("poly.py", "Poly._trusted", "__new__"),
    ("poly.py", "Poly._trusted", "terms assigned"),
    ("poly.py", "_poly", "_trusted"),
    ("factorizations.py", "_unit_homotopy.scaled", "_trusted"),
}
MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _kinds(node):
    """The ways round ``Poly.__init__`` that one AST node takes."""
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        if any(_is_terms(sub) for t in targets for sub in ast.walk(t)):
            yield "terms assigned"  # p.terms = ..., p.terms[e] = ..., del p.terms[e]
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("__new__", "_trusted"):
            yield name
        if name in ("setattr", "__setattr__") and any(
                isinstance(a, ast.Constant) and a.value == "terms" for a in node.args):
            yield "terms assigned"
        if name in MUTATORS and isinstance(func, ast.Attribute) and _is_terms(func.value):
            yield "terms assigned"


def bypasses(source, filename="<src>"):
    """(enclosing function, kind) of each way round ``Poly.__init__`` in
    ``source``: a ``__new__`` call, a ``_trusted`` call, or a write to a
    ``.terms`` attribute or into its dict.  The function is named by the
    dotted names of the classes and functions around it."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        found.extend((".".join(scope), kind) for kind in _kinds(node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source, filename), [])
    return found


def test_trusted_constructor_is_the_only_bypass_of_poly_init_in_src():
    found = {(path.name, scope, kind) for path in sorted(SRC.rglob("*.py"))
             for scope, kind in bypasses(path.read_text(), str(path))}
    assert len(list(SRC.rglob("*.py"))) > 1
    assert found == ALLOWED, (found - ALLOWED, ALLOWED - found)


def test_bypass_finder_rejects_each_way_round_poly_init():
    snippets = {
        "object.__new__(Poly)": "__new__",
        "Poly.__new__(Poly)": "__new__",
        "Poly._trusted(ring, {})": "_trusted",
        "p.terms = {}": "terms assigned",
        "p.terms, q = {}, 1": "terms assigned",
        "p.terms[e] = zero": "terms assigned",
        "del p.terms[e]": "terms assigned",
        "p.terms.update({e: zero})": "terms assigned",
        "p.terms.pop(e)": "terms assigned",
        "setattr(p, 'terms', {})": "terms assigned",
        "object.__setattr__(p, 'terms', {})": "terms assigned",
    }
    for text, kind in snippets.items():
        assert bypasses(f"def f():\n    {text}\n") == [("f", kind)], text
    source = "class Poly:\n    def g(self):\n        def h():\n            Poly._trusted(r, t)\n"
    assert bypasses(source) == [("Poly.g.h", "_trusted")]
    # reading the terms, or building a Poly through __init__, is no bypass
    assert bypasses("def f():\n    d = dict(p.terms)\n    d[e] = c\n"
                    "    q = Poly(ring, d)\n    return p.terms.get(e)\n") == []
