"""The benchmark's tracer (``bench/dgmf_bench/tracer.py``) wraps dgmf entry
points named by (module, qualified name) in its tables SPANS, TIMED and
COUNTED.  A renamed entry point makes ``bench/run.py --trace`` fail, so every
name is checked here.  The tables are read from the tracer's source; nothing
under ``bench/`` is imported."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "dgmf_bench" / "tracer.py"
TABLES = ("SPANS", "TIMED", "COUNTED")


def _traced_names():
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(TRACER.read_text()).body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in TABLES}
    assert set(tables) == set(TABLES)
    names = [(module, qualname) for table in ("SPANS", "TIMED")
             for module, qualnames in tables[table].items() for qualname in qualnames]
    return names + list(tables["COUNTED"])


def test_every_traced_name_resolves_in_dgmf():
    """As the tracer resolves a name: ``getattr`` down to the owner, then
    the last part from the owner's own ``vars``.  So a traced method that
    its class inherits instead of defining fails here, not in a traced run."""
    names = _traced_names()
    missing = []
    for module, qualname in names:
        *path, last = qualname.split(".")
        owner = importlib.import_module(f"dgmf.{module}")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(vars(owner).get(last) if owner is not None else None):
            missing.append(f"dgmf.{module}.{qualname}")
    assert ("spincurve", "check_equivariance") in names
    assert not missing, missing
