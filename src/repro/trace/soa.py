"""Structure-of-arrays trace windows for the vector engine backend.

A :class:`SoaWindow` is one bounded program-order window of a trace
decomposed into parallel per-field columns (docs/VECTOR.md): instead
of a list of :class:`~repro.isa.instruction.MicroOp` objects, the
vector timing loop reads plain Python ``list`` columns (C-speed
indexing, no per-op attribute lookups) plus a few numpy views used for
the vectorizable pre-passes — fetch-line-change detection, op-class
masks, and the store→load aliasing eligibility check.

Two constructors mirror the two trace representations:

* :meth:`SoaWindow.from_microops` — one attribute-read pass over an
  in-memory window (the :class:`~repro.trace.source.ListSource` /
  ``ProfileSource`` path).
* :meth:`SoaWindow.from_records` — a zero-object ``numpy.frombuffer``
  decode of raw v2 trace-file records
  (:class:`~repro.trace.io.FileSource` replay skips building MicroOps
  entirely on vector-eligible windows).

Both produce identical column values for the same ops —
``tests/test_engine_vector.py`` round-trips the two against each
other — and :meth:`SoaWindow.to_microops` reconstructs the exact
MicroOp sequence for windows the vector backend hands to its scalar
fallback loop.

Column conventions: ``dests`` uses ``-1`` for "no destination" and
``addrs`` uses ``-1`` for "no address" (``None`` in MicroOp form);
``values``/``pcs``/``targets`` are plain non-negative ints exactly as
carried by the MicroOp fields.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.isa import opcodes
from repro.isa.instruction import MicroOp

#: Structured dtype matching the packed 44-byte v2 trace record
#: (``repro.trace.io._RECORD`` = ``"<QBBBxIQQBBHQ"``); field names
#: follow the format doc in trace/io.py.
RECORD_DTYPE = np.dtype([
    ("pc", "<u8"),
    ("op", "u1"),
    ("dest", "u1"),
    ("n_srcs", "u1"),
    ("_pad", "u1"),
    ("srcs_packed", "<u4"),
    ("value", "<u8"),
    ("addr", "<u8"),
    ("mem_size", "u1"),
    ("flags", "u1"),
    ("_reserved", "<u2"),
    ("target", "<u8"),
])

_NO_DEST = 0xFF
_NO_ADDR = (1 << 64) - 1

#: Op class → control-flow flag as a numpy lookup table (indexed by
#: the ``op`` column to produce whole-window masks).
_NP_IS_CONTROL = np.array(
    [op in opcodes.CONTROL for op in range(max(opcodes.ALL_CLASSES) + 1)],
    dtype=bool)

_LOAD = opcodes.LOAD
_STORE = opcodes.STORE


def _any_in(values: "np.ndarray", pool: "np.ndarray") -> bool:
    """True when any element of ``values`` occurs in the non-empty
    ``pool``.  A sorted-pool binary search rather than ``np.isin``,
    whose first call imports ``numpy.ma`` (through ``np.unique``):
    that import would land in every forked campaign worker."""
    pool = np.sort(pool)
    slots = np.searchsorted(pool, values)
    np.minimum(slots, len(pool) - 1, out=slots)
    return bool((pool[slots] == values).any())


class SoaWindow:
    """One bounded trace window in structure-of-arrays form.

    Columns are plain Python lists (fast scalar indexing in the timing
    recurrence); ``op_array`` and ``pc_array`` are numpy views kept for
    the vectorized pre-passes.  Instances are produced by
    :meth:`~repro.trace.source.TraceSource.soa_windows` and consumed
    only by :mod:`repro.pipeline.engine_vector`.
    """

    __slots__ = ("n", "ops", "pcs", "dests", "srcs", "values", "addrs",
                 "mem_sizes", "takens", "targets", "op_array",
                 "pc_array", "addr_array", "_microops")

    def __init__(self, n: int, ops: Optional[List[int]],
                 pcs: Optional[List[int]], dests: Optional[List[int]],
                 srcs: Optional[List[Tuple[int, ...]]],
                 values: Optional[List[int]],
                 addrs: Optional[List[int]],
                 mem_sizes: Optional[List[int]],
                 takens: Optional[List[bool]],
                 targets: Optional[List[int]], op_array: "np.ndarray",
                 pc_array: "Optional[np.ndarray]",
                 addr_array: "np.ndarray",
                 microops: Optional[Sequence[MicroOp]] = None) -> None:
        self.n = n
        self.ops = ops
        self.pcs = pcs
        self.dests = dests
        self.srcs = srcs
        self.values = values
        self.addrs = addrs
        self.mem_sizes = mem_sizes
        self.takens = takens
        self.targets = targets
        self.op_array = op_array
        self.pc_array = pc_array
        self.addr_array = addr_array
        self._microops = microops

    # ------------------------------------------------------------------
    @classmethod
    def from_microops(cls, window: Sequence[MicroOp]) -> "SoaWindow":
        """Decompose an in-memory window (the original sequence is
        retained for :meth:`to_microops`).

        Only the two *probe* arrays every window needs — ``op_array``
        and ``addr_array``, the inputs of :meth:`aliases_stores` — are
        built here; all the list columns are deferred to
        :meth:`load_columns` so windows that fall back to the scalar
        loop never pay for columns they won't read."""
        n = len(window)
        op_array = np.fromiter((u.op for u in window),
                               dtype=np.uint8, count=n)
        addr_array = np.fromiter(
            (-1 if u.addr is None else u.addr for u in window),
            dtype=np.int64, count=n)
        return cls(n, None, None, None, None, None, None, None,
                   None, None, op_array, None, addr_array,
                   microops=window)

    def load_columns(self) -> "SoaWindow":
        """Populate the deferred list columns (and ``pc_array``) when
        the window came from MicroOps; no-op on fully-decoded windows.
        Called by the vector backend once a window passes the
        eligibility probe."""
        if self.dests is None:
            window = self._microops
            self.ops = self.op_array.tolist()
            self.pcs = [u.pc for u in window]
            self.pc_array = np.array(self.pcs, dtype=np.uint64)
            self.dests = [-1 if u.dest is None else u.dest
                          for u in window]
            self.srcs = [u.srcs for u in window]
            self.values = [u.value for u in window]
            self.addrs = self.addr_array.tolist()
            self.mem_sizes = [u.mem_size for u in window]
            self.takens = [u.taken for u in window]
            self.targets = [u.target for u in window]
        return self

    @classmethod
    def from_records(cls, raw: bytes) -> "SoaWindow":
        """Decode raw v2 trace records straight into columns — no
        MicroOp objects are built (FileSource's vector fast path)."""
        rec = np.frombuffer(raw, dtype=RECORD_DTYPE)
        n = len(rec)
        op_array = rec["op"]
        pc_array = rec["pc"]
        dest_raw = rec["dest"].astype(np.int16)
        np.subtract(dest_raw, 256, out=dest_raw,
                    where=dest_raw == _NO_DEST)  # 0xFF → -1
        addr_u = rec["addr"]
        addrs_signed = addr_u.astype(np.int64)  # _NO_ADDR wraps to -1
        packed = rec["srcs_packed"]
        lanes = np.empty((n, 4), dtype=np.uint8)
        for lane in range(4):
            lanes[:, lane] = (packed >> (8 * lane)) & 0xFF
        lane_rows = lanes.tolist()
        srcs = [tuple(row[:count]) for row, count
                in zip(lane_rows, rec["n_srcs"].tolist())]
        return cls(
            n,
            op_array.tolist(),
            pc_array.tolist(),
            dest_raw.tolist(),
            srcs,
            rec["value"].tolist(),
            addrs_signed.tolist(),
            rec["mem_size"].tolist(),
            (rec["flags"] & 1).astype(bool).tolist(),
            rec["target"].tolist(),
            op_array,
            pc_array,
            addrs_signed,
        )

    # ------------------------------------------------------------------
    def to_microops(self) -> Sequence[MicroOp]:
        """The window as MicroOps — the original sequence when the
        window came from one, else an exact reconstruction from the
        columns (used for scalar-fallback windows of file replays)."""
        if self._microops is not None:
            return self._microops
        out = [MicroOp(pc, op,
                       dest=None if dest < 0 else dest,
                       srcs=srcs,
                       value=value,
                       addr=None if addr < 0 else addr,
                       mem_size=mem_size,
                       taken=taken,
                       target=target)
               for pc, op, dest, srcs, value, addr, mem_size, taken,
               target in zip(self.pcs, self.ops, self.dests, self.srcs,
                             self.values, self.addrs, self.mem_sizes,
                             self.takens, self.targets)]
        self._microops = out
        return out

    # ------------------------------------------------------------------
    def control_indices(self) -> List[int]:
        """Window-relative indices of control ops, in program order."""
        return np.flatnonzero(_NP_IS_CONTROL[self.op_array]).tolist()

    def memory_indices(self) -> List[int]:
        """Window-relative indices of loads and stores, in program
        order (the order the cache front half must see them)."""
        return np.flatnonzero((self.op_array == _LOAD)
                              | (self.op_array == _STORE)).tolist()

    def line_change_indices(self, line_bytes: int,
                            carry_line: int) -> List[int]:
        """Window-relative indices where fetch crosses into a new
        I-cache line, given the line the previous op fetched from
        (``carry_line``; ``-1`` before the first fetch)."""
        lines = self.pc_array // np.uint64(line_bytes)
        changed = np.empty(self.n, dtype=bool)
        changed[0] = int(lines[0]) != carry_line
        np.not_equal(lines[1:], lines[:-1], out=changed[1:])
        return np.flatnonzero(changed).tolist()

    def aliases_stores(self, carry_addr8: Sequence[int]) -> bool:
        """Conservative store→load aliasing probe for the vector
        eligibility rule (docs/VECTOR.md): True when any load's 8-byte
        block matches any in-window store block or any carried
        in-flight store block (``carry_addr8``).  False guarantees no
        load in this window can see a forwarding candidate, so the
        branch-free vector recurrence is exact."""
        op_array = self.op_array
        load_mask = op_array == _LOAD
        if not load_mask.any():
            return False
        addr_array = self.addr_array
        load8 = addr_array[load_mask] >> 3
        store_mask = op_array == _STORE
        if store_mask.any() \
                and _any_in(load8, addr_array[store_mask] >> 3):
            return True
        if carry_addr8:
            carry = np.fromiter(carry_addr8, dtype=np.int64,
                                count=len(carry_addr8)) >> 3
            return _any_in(load8, carry)
        return False


__all__ = ["RECORD_DTYPE", "SoaWindow"]
