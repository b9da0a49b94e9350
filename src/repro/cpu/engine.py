"""Cycle-engine backend selection.

Two interchangeable engines run a timing simulation:

- ``reference`` -- the original :class:`repro.cpu.pipeline.Pipeline`
  per-cycle stage closures, retained verbatim as the oracle the kernel
  is gated against, and the only engine with microarchitectural tracing
  (utrace) hooks;
- ``kernel`` (default) -- the merged event loop over flat arrays
  (:mod:`repro.cpu.kerneldriver`).  It runs the compiled C kernel
  whenever :func:`repro.cpu.nativebuild.load` returns a library and the
  pure-Python :mod:`repro.cpu._kernel` otherwise (no C compiler, or
  ``REPRO_NATIVE=0``); :func:`kernel_impl` says which.

The backend is selected by the ``REPRO_SIM_BACKEND`` environment
variable or programmatically via :func:`set_sim_backend` (the
``--sim-backend`` CLI flag and the golden bit-identity tests).  Nothing
numeric may depend on the backend: both engines, and both kernel
implementations, must produce bit-identical
:class:`~repro.cpu.stats.SimStats`, selected p-threads, and figure rows
(``tests/cpu/test_golden_sim_backends.py``).  Progress heartbeats,
debug logging and fault plans run on either engine; only utrace routes
a ``kernel`` run to the reference (see :func:`repro.cpu.pipeline.simulate`).

This module imports no simulator code at import time, so backend
*resolution* stays import-cycle-free and never probes the compiled
artifact.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ConfigError

#: Every selectable engine, in documentation order.
SIM_BACKENDS = ("reference", "kernel")

DEFAULT_BACKEND = "kernel"

_backend: Optional[str] = None


def _check_name(name: str, context: str) -> None:
    if name not in SIM_BACKENDS:
        raise ConfigError(
            f"{context} is not a simulation backend; "
            f"legal: {', '.join(SIM_BACKENDS)}"
        )


def backend() -> str:
    """The active cycle-engine backend name."""
    global _backend
    if _backend is None:
        env = os.environ.get("REPRO_SIM_BACKEND", "").strip().lower()
        if env:
            _check_name(env, f"REPRO_SIM_BACKEND={env!r}")
        _backend = env or DEFAULT_BACKEND
    return _backend


def set_sim_backend(name: Optional[str]) -> None:
    """Force a backend, or ``None`` to re-resolve from the environment."""
    global _backend
    if name is not None:
        _check_name(name, repr(name))
    _backend = name


def kernel_impl() -> str:
    """Which implementation runs the compiled layers here -- the
    ``kernel`` engine's loop and the load cost model's forward pass:
    ``"c"`` or ``"python"``.

    Probes (and on first use builds) the compiled artifact.
    """
    from repro.cpu import nativebuild

    return "c" if nativebuild.load() is not None else "python"
