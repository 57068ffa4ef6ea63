"""Verified blocks: a contracting scalar recursion run as array lanes, bit for bit its loop.

A recursion v_{t+1} = f(v_t, data_t) whose random maps contract (random
Moebius maps, Furstenberg 1963) forgets where it started: two float
trajectories fed the same data from different starts become bitwise
equal after finitely many steps, the coalescence that coupling-from-the-
past samplers rely on (Propp & Wilson 1996).  The T steps are split into
nb blocks of L steps, which run side by side as the lanes of one array
loop over the L steps of a block:

- sweep 1 runs every block from a fixed guess and keeps its end value;
- sweep 2 runs block b from sweep 1's end of block b - 1, and block 0
  from the true start, and writes the outputs and the end values;
- walking the blocks in order, block b holds exactly the sequential
  loop's values when block b - 1's end from sweep 1 has the bits of its
  true end (by induction: block 0 starts at the true start, and a
  block's end is a deterministic function of its start and data);
  a block that fails re-runs by the sequential loop from the true end
  of the block before it, which is then its own true end.

numpy's float64 add, subtract, multiply and divide round exactly as
Python floats do, so the accepted blocks hold the loop's bits.  The
callers keep the loop for singular steps; ledger D11 gives the
coalescence distances behind their block lengths.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = ["block_view", "walk_blocks"]


def block_view(a: np.ndarray, block: int, n_blocks: int, start: int = 0, writeable: bool = False) -> np.ndarray:
    """View whose [j, ..., b] is a[..., start + b * block + j]: step j of every block as one row.

    The blocks must lie within a, and do not overlap, so the view may be
    writeable.
    """
    if start + block * n_blocks > a.shape[-1]:
        raise ValueError("blocks run past the end of the array")
    step = a.strides[-1]
    return as_strided(a[..., start:], (block,) + a.shape[:-1] + (n_blocks,),
                      (step,) + a.strides[:-1] + (block * step,), writeable=writeable)


def walk_blocks(ends1: np.ndarray, ends2: np.ndarray, rerun) -> tuple[np.ndarray, int]:
    """True end of every lane's last block, and the number of lane blocks re-run.

    ends1 and ends2 (..., nb) hold each lane's block end values from
    sweeps 1 and 2; sweep 2 ran block 0 from the true start.
    rerun(b, redo, v) runs block b of the lanes where the boolean redo
    (...) is set, by the sequential loop from their true starts v (in
    the row-major order of redo), puts their outputs in place of sweep
    2's and returns their true ends in the same order.
    """
    bits1 = ends1.view(np.int64)
    if np.array_equal(bits1[..., :-1], ends2.view(np.int64)[..., :-1]):
        return ends2[..., -1].copy(), 0
    v, reruns = ends2[..., 0].copy(), 0
    for b in range(1, ends2.shape[-1]):
        redo = bits1[..., b - 1] != v.view(np.int64)
        v = np.where(redo, v, ends2[..., b])  # sweep 2's end where block b started right
        if redo.any():
            v[redo] = rerun(b, redo, v[redo])
            reruns += int(np.count_nonzero(redo))
    return v, reruns
