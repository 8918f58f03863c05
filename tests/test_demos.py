"""Each script in demos/ runs and prints exactly what it printed when its
SHA-256 was pinned here: the demos double as bit-exactness checks of the
library's printed output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_koszul_and_folding.py": "cdb8e383720c7495e981fe662f426ece75d002635b05ec529dc6125457e4d9d0",
    "02_pairs_and_shriek.py": "a25f8ab3f5777c1e052eccfbf4b72d90d48e2caa751a1c4fa20178a74c0f48f0",
    "03_residues_and_log_forms.py": "e863ebd8f9c349e1162c0a6cb0ada599fe1a6927a5f377d14f1e23faf78751ff",
    "04_fundamental_pipeline.py": "8e614b57395bf87720e3cbe6936d095539ba584129d22607eefd65fcbfd3012d",
    "05_gluing.py": "6bb37d59d994d77e38e17726dd5e3d1c97bbf6cf377259ed8ab3349f94bf9e7e",
}


def test_every_demo_has_a_pinned_output():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_prints_its_pinned_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name], \
        proc.stdout.decode()
