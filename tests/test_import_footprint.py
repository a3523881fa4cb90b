"""The checker's import footprint: no networkx, no NumPy.

networkx is a test-side reference oracle and NumPy serves only the
simulator, so importing the verification stack must load neither.  A fresh
interpreter keeps modules other tests imported out of the picture.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import repro.verify, repro.pipeline, repro.incremental, repro.analyze
print(json.dumps(sorted(m for m in ("networkx", "numpy") if m in sys.modules)))
"""


def test_checker_imports_load_neither_networkx_nor_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []
