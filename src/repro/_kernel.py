"""Backend gate for the vectorized (NumPy) kernels.

The checker's edge collection exists in two semantically identical
implementations: a pure-Python reference (the code every proof of
behavior-preservation is written against) and a vectorized NumPy kernel.
This module is the single switch deciding which one runs (and what
:class:`~repro.routing.selection.RandomSelection` checks before drawing
from NumPy):

* ``REPRO_NO_NUMPY=1`` forces the pure path everywhere -- the escape hatch
  CI uses to prove the reference implementation still carries the whole
  test suite, and the fallback on machines without NumPy (the ``fast``
  extra pins NumPy; the base install does not need it for correctness);
* ``REPRO_BACKEND=pure|numpy`` pins the backend explicitly;
* otherwise :func:`backend` resolves to ``numpy`` whenever NumPy imports --
  but the edge collection deliberately does NOT use that default: it keeps
  its pure loops because measurement favors them (see EXPERIMENTS.md), and
  consults only :func:`forced_backend` to opt into the kernel.

Both backends are pinned byte-identical by the verdict matrices and the
dedicated parity suite (``tests/test_backend_parity.py``); a divergence is
a bug in the vectorized kernel, never a tolerated drift.

The environment is re-read on every :func:`backend` call (it is two dict
lookups) so tests can flip backends with ``monkeypatch.setenv`` without
reloading modules.
"""

from __future__ import annotations

import os

try:  # NumPy is an optional accelerator, never a correctness requirement
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via REPRO_NO_NUMPY in CI
    _np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = ["HAVE_NUMPY", "backend", "forced_backend", "use_numpy"]


def forced_backend() -> str | None:
    """The backend the *environment* pins, or ``None`` when it is free.

    Callers that default to their pure loops (the checker's edge
    collection) use this to tell "the user demanded a backend" from "pick
    whatever is fastest here".
    """
    if os.environ.get("REPRO_NO_NUMPY") == "1":
        return "pure"
    forced = os.environ.get("REPRO_BACKEND")
    if forced is not None and forced not in ("numpy", "pure"):
        raise ValueError(f"unknown kernel backend {forced!r}")
    return forced


def backend() -> str:
    """Resolve the active kernel backend: ``"numpy"`` or ``"pure"``.

    Resolution order: ``REPRO_NO_NUMPY``, ``REPRO_BACKEND``, then ``numpy``
    iff importable.
    """
    forced = forced_backend()
    if forced is None:
        return "numpy" if HAVE_NUMPY else "pure"
    if forced == "numpy" and not HAVE_NUMPY:
        raise RuntimeError("backend 'numpy' requested but numpy is not importable")
    return forced


def use_numpy() -> bool:
    """True when the resolved backend is the NumPy kernel."""
    return backend() == "numpy"
