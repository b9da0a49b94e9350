"""Columnar (structure-of-arrays) storage machinery.

Originally built for the dynamic trace -- seven flat columns (pc, op
code, producer sequence numbers, effective address, branch direction,
resolved next pc) instead of one Python object per dynamic instruction
-- the buffer/seal machinery here is general and is also the array
layer under the :mod:`repro.analytics` columnar run store (int64,
int8, and float64 columns over millions of result rows).  Two
interchangeable backends hold the sealed columns:

- ``python`` -- stdlib ``array('q')`` / ``array('b')``, always available;
- ``numpy``  -- int64/int8 ndarrays, enabling vectorized index and stats
  construction over the same values.

The backend is selected by the ``REPRO_NUMPY`` environment variable
(``1`` forces NumPy, ``0`` forces the pure-Python fallback, unset picks
NumPy when importable) or programmatically via :func:`set_backend` (the
``--numpy`` CLI flag and the golden bit-identity tests).  Columns hold
the same 64-bit values either way; nothing numeric may depend on the
backend.

Emission always happens into preallocated stdlib arrays (CPython item
assignment into ``array('q')`` is as fast as anything NumPy offers for
a data-dependent sequential loop); :meth:`TraceColumns.seal` converts
the truncated columns to the active backend once, at trace build time.
"""

from __future__ import annotations

import math
import os
import struct
from array import array
from typing import Iterable, List, Optional

from repro.errors import ConfigError

try:  # optional backend; the pure-Python fallback needs no third party
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    _np = None

#: int64 two's-complement -1, used to prefill sentinel columns.
_NEG1_WORD = b"\xff" * 8

_backend: Optional[str] = None


def _resolve_from_env() -> str:
    env = os.environ.get("REPRO_NUMPY", "").strip()
    if env == "0":
        return "python"
    if env == "1":
        if _np is None:
            raise ConfigError(
                "REPRO_NUMPY=1 requires numpy, which is not importable"
            )
        return "numpy"
    return "numpy" if _np is not None else "python"


def backend() -> str:
    """The active column backend name (``"python"`` or ``"numpy"``)."""
    global _backend
    if _backend is None:
        _backend = _resolve_from_env()
    return _backend


def set_backend(name: Optional[str]) -> None:
    """Force a backend, or ``None`` to re-resolve from the environment.

    Traces already built keep their backend; only future construction is
    affected (the golden tests build one trace per backend and compare).
    """
    global _backend
    if name is None:
        _backend = None
        return
    if name not in ("python", "numpy"):
        raise ConfigError(f"unknown column backend: {name!r}")
    if name == "numpy" and _np is None:
        raise ConfigError("numpy backend requested but numpy is not importable")
    _backend = name


def use_numpy() -> bool:
    return backend() == "numpy"


def int64_buffer(n: int, fill: int = 0) -> array:
    """A writable int64 emission buffer of length ``n``.

    ``fill`` must be 0 or -1: the two sentinel prefill patterns the
    interpreter needs (zeros for always-written columns, -1 for
    ``NO_PRODUCER`` / "no address" defaults), both constructed as raw
    bytes rather than one Python int at a time.
    """
    if fill == 0:
        return array("q", bytes(8 * n))
    if fill == -1:
        return array("q", _NEG1_WORD * n)
    raise ValueError(f"unsupported prefill value: {fill}")


def int8_buffer(n: int) -> array:
    """A writable zero-filled int8 emission buffer of length ``n``."""
    return array("b", bytes(n))


#: Native-order float64 NaN, the "value absent" sentinel for analytics
#: columns (result rows are an open set; most segments miss some keys).
_NAN_WORD = struct.pack("=d", math.nan)


def float64_buffer(n: int, fill: float = 0.0) -> array:
    """A writable float64 emission buffer of length ``n``.

    ``fill`` must be 0.0 or NaN -- the two bulk prefill patterns
    (zeros for dense columns, NaN for sparse "missing value" columns),
    both constructed as raw bytes rather than one float at a time.
    """
    if fill == 0.0:
        return array("d", bytes(8 * n))
    if math.isnan(fill):
        return array("d", _NAN_WORD * n)
    raise ValueError(f"unsupported prefill value: {fill}")


def grow_int64(col: array, delta: int, fill: int = 0) -> None:
    """Extend an int64 emission buffer by ``delta`` prefilled slots."""
    col.frombytes(_NEG1_WORD * delta if fill == -1 else bytes(8 * delta))


def grow_int8(col: array, delta: int) -> None:
    """Extend an int8 emission buffer by ``delta`` zeroed slots."""
    col.frombytes(bytes(delta))


def grow_float64(col: array, delta: int) -> None:
    """Extend a float64 emission buffer by ``delta`` zeroed slots."""
    col.frombytes(bytes(8 * delta))


# --------------------------------------------------------------------- #
# Generic typed columns (beyond the fixed trace schema).
#
# The analytics run store holds an *open* column set -- whatever numeric
# and categorical keys its ingested result rows carry -- so it needs the
# buffer/seal machinery parameterized by column kind rather than the
# seven hard-wired trace columns above.
# --------------------------------------------------------------------- #

#: kind -> (array typecode, numpy dtype name, bytes per item)
COLUMN_KINDS = {
    "int64": ("q", "int64", 8),
    "int8": ("b", "int8", 1),
    "float64": ("d", "float64", 8),
}


def seal_column(col: array, kind: str):
    """Convert one emission buffer to the active backend (zero-copy via
    ``numpy.frombuffer`` when the NumPy backend is selected)."""
    typecode, dtype, _ = COLUMN_KINDS[kind]
    if col.typecode != typecode:
        raise ConfigError(
            f"column buffer typecode {col.typecode!r} does not match "
            f"kind {kind!r} (expected {typecode!r})"
        )
    if backend() == "numpy":
        return _np.frombuffer(col, dtype=dtype)
    return col


def column_from_values(values: Iterable, kind: str):
    """Build a sealed column of ``kind`` from a Python iterable."""
    typecode, dtype, _ = COLUMN_KINDS[kind]
    if backend() == "numpy":
        return _np.asarray(list(values), dtype=dtype)
    return array(typecode, values)


def column_from_bytes(raw: bytes, kind: str):
    """Rehydrate a sealed column from its on-disk little-endian bytes.

    Segment files store raw column bytes; both backends read the same
    payload (``array`` and ``numpy`` agree on the memory layout for the
    three supported kinds on every platform CPython supports).
    """
    typecode, dtype, _ = COLUMN_KINDS[kind]
    if backend() == "numpy":
        return _np.frombuffer(raw, dtype=dtype)
    col = array(typecode)
    col.frombytes(raw)
    return col


def column_to_bytes(col) -> bytes:
    """The on-disk byte payload of a sealed (or emission) column."""
    if _np is not None and isinstance(col, _np.ndarray):
        return col.tobytes()
    return col.tobytes()


class TraceColumns:
    """Sealed trace columns, in the backend active at construction.

    ``taken`` and ``op_code`` are 8-bit columns; the rest are int64.
    Instances are treated as immutable once sealed -- they are shared
    across grid cells and fork-inherited pool workers.
    """

    __slots__ = ("pc", "op_code", "src1", "src2", "addr", "taken",
                 "next_pc", "backend")

    def __init__(self, pc, op_code, src1, src2, addr, taken, next_pc,
                 backend_name: str) -> None:
        self.pc = pc
        self.op_code = op_code
        self.src1 = src1
        self.src2 = src2
        self.addr = addr
        self.taken = taken
        self.next_pc = next_pc
        self.backend = backend_name

    def __len__(self) -> int:
        return len(self.pc)

    @classmethod
    def seal(
        cls,
        pc: array,
        op_code: array,
        src1: array,
        src2: array,
        addr: array,
        taken: array,
        next_pc: array,
        length: int,
    ) -> "TraceColumns":
        """Truncate emission buffers to ``length`` and convert them to
        the active backend."""
        for col in (pc, src1, src2, addr, next_pc, op_code, taken):
            del col[length:]
        name = backend()
        if name == "numpy":
            return cls(
                _np.frombuffer(pc, dtype=_np.int64),
                _np.frombuffer(op_code, dtype=_np.int8),
                _np.frombuffer(src1, dtype=_np.int64),
                _np.frombuffer(src2, dtype=_np.int64),
                _np.frombuffer(addr, dtype=_np.int64),
                _np.frombuffer(taken, dtype=_np.int8),
                _np.frombuffer(next_pc, dtype=_np.int64),
                backend_name=name,
            )
        return cls(pc, op_code, src1, src2, addr, taken, next_pc,
                   backend_name=name)

    @classmethod
    def from_rows(cls, rows: Iterable) -> "TraceColumns":
        """Build sealed columns from ``DynInst``-like row objects (the
        legacy constructor path: tests and the object-path reference
        interpreter)."""
        pc: List[int] = []
        op_code: List[int] = []
        src1: List[int] = []
        src2: List[int] = []
        addr: List[int] = []
        taken: List[int] = []
        next_pc: List[int] = []
        from repro.isa.opcodes import CODE_BY_OP

        for row in rows:
            pc.append(row.pc)
            op_code.append(CODE_BY_OP[row.op])
            src1.append(row.src1_seq)
            src2.append(row.src2_seq)
            addr.append(row.addr)
            taken.append(1 if row.taken else 0)
            next_pc.append(row.next_pc)
        name = backend()
        if name == "numpy":
            return cls(
                _np.asarray(pc, dtype=_np.int64),
                _np.asarray(op_code, dtype=_np.int8),
                _np.asarray(src1, dtype=_np.int64),
                _np.asarray(src2, dtype=_np.int64),
                _np.asarray(addr, dtype=_np.int64),
                _np.asarray(taken, dtype=_np.int8),
                _np.asarray(next_pc, dtype=_np.int64),
                backend_name=name,
            )
        return cls(
            array("q", pc),
            array("b", op_code),
            array("q", src1),
            array("q", src2),
            array("q", addr),
            array("b", taken),
            array("q", next_pc),
            backend_name=name,
        )
