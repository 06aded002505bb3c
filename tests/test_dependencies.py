"""The package needs numpy only: scipy stays out of its imports and its certificates.

Each check starts a fresh interpreter, so modules imported by other tests (or
by pytest plugins) cannot hide an import the package makes itself.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    out = run_fresh(
        "import sys\n"
        "import blendnet, blendnet.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert out == "[]"


def test_non_normal_certificate_without_scipy():
    # sys.modules[name] = None makes every import of scipy raise ImportError
    out = run_fresh(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from blendnet.analysis import contraction_affine\n"
        "a = np.array([[0.5, 10.0], [0.0, 0.5]])\n"
        "cert = contraction_affine(a)\n"
        "h2 = cert.H @ cert.H\n"
        "print(cert.contractive, cert.gamma, np.linalg.eigvalsh(cert.gamma * h2 - a.T @ h2 @ a).min())\n"
    )
    contractive, gamma, margin = out.split()
    assert contractive == "True"
    assert 0.25 <= float(gamma) < 1.0
    assert float(margin) > -1e-9
