"""Certificate checks and parse errors are explicit raises, never ``assert``
statements, so they must still reject bad results and bad input under
``python -O``; every Scalar must still come out in lowest terms.  The
sweep selects its tests by name over every file in tests/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_certificate_checks_survive_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "rejects or wrong or exit_4 or raises or canonical", "tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    # pytest exits 5 when the selection is empty, so 0 means tests ran and passed
    assert proc.returncode == 0, proc.stdout + proc.stderr
