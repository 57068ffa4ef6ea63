"""Deterministic spectral engine for real symmetric tridiagonal matrices.

Everything here is built on the three-term recurrence for the
characteristic polynomial of a tridiagonal matrix: Sturm counts (exact
eigenvalue counting) and bisection eigenvalues, plus a trace-log
consistency check for anti-symmetric matrices.  The Sturm kernel and
eigenvalues_many take a batch of equal-size matrices as a lane axis of
one sweep, and every row equals its one-matrix result.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .blocks import block_view, walk_blocks

__all__ = [
    "SymTridiag",
    "AntisymTridiag",
    "Spectrum",
    "count_below",
    "count_below_many",
    "eigenvalues",
    "eigenvalues_many",
    "tracelog_check",
]

logger = logging.getLogger(__name__)

# Stand-in for a zero Sturm pivot.
_TINY = 1e-300

# Most lanes (matrix-probe pairs) that _sturm_counts runs as one Python-float
# loop each, the break-even with the array loop measured on a 2-core box
# (docs/sturm_lanes.py); the sites that the float loop turns into Python
# floats at a time; and the elements (sites times lanes) of the array loop's
# block of a - x, small enough to stay in cache.
_FLOAT_LOOP_LANES = 20
_FLOAT_LOOP_CHUNK = 1024
_ARRAY_BLOCK_ELEMENTS = 2**15

# Those few lanes run as verified blocks of _BLOCK_SITES sites (_block_counts)
# on a matrix of at least _BLOCK_MIN blocks: from 32769 sites, where the
# blocks beat the float loop at 1 to 20 lanes probed across the band, and
# cost up to a fifth more where every block re-runs (ledger D11,
# docs/sturm_lanes.py --blocks).
_BLOCK_SITES = 2048
_BLOCK_MIN = 16

# Guards around LAPACK estimates (_guards) steer a bisection whose matrix has
# at most this many sites per wanted rank: the estimates cost O(n^2) per
# matrix, and the break-even with the sweeps they save runs from about 300
# sites per rank at n = 401 to 30 at n = 4001 (docs/sturm_lanes.py --hint,
# 2-core box).  A guard sits _GUARD_ULPS sqrt(n) rounding units of the
# spectral radius from its estimate, twice the widest miss seen (ledger D9).
_HINT_SITES_PER_RANK = 64
_GUARD_ULPS = 16


@dataclass(frozen=True)
class SymTridiag:
    """Real symmetric tridiagonal matrix, stored as diagonal + off-diagonal."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.off, dtype=float)
        if d.ndim != 1 or e.ndim != 1 or e.size != max(d.size - 1, 0):
            raise ValueError("need diag of length n and off of length n-1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("matrix entries must be finite")
        # The Sturm recurrence divides by b^2: an overflowing square gives
        # NaN pivots and wrong counts.
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(e * e)):
                raise ValueError("off-diagonal entries must have a finite square (|b| below about 1.34e154)")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "off", e)

    @property
    def n(self) -> int:
        return self.diag.size

    def gershgorin(self) -> tuple[float, float]:
        """Enclosing interval for all eigenvalues."""
        r = np.zeros(self.n)
        if self.n > 1:
            r[:-1] += np.abs(self.off)
            r[1:] += np.abs(self.off)
        return float(np.min(self.diag - r)), float(np.max(self.diag + r))

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        if self.n > 1:
            m += np.diag(self.off, 1) + np.diag(self.off, -1)
        return m


@dataclass(frozen=True)
class AntisymTridiag:
    """Anti-symmetric tridiagonal matrix: +sup above the diagonal, -sup below.

    The Hermitian partner i*Lambda is unitarily equivalent (conjugation by
    diag(i^j)) to the real symmetric tridiagonal with zero diagonal and
    off-diagonal equal to sup; all spectra are computed through that image.
    """

    sup: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sup, dtype=float)
        if s.ndim != 1 or not np.all(np.isfinite(s)):
            raise ValueError("superdiagonal must be a finite 1-d array")
        object.__setattr__(self, "sup", s)

    @property
    def n(self) -> int:
        return self.sup.size + 1

    def hermitian_image(self) -> SymTridiag:
        return SymTridiag(np.zeros(self.n), self.sup.copy())

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        if self.n > 1:
            m += np.diag(self.sup, 1) - np.diag(self.sup, -1)
        return m


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with the tolerance they were computed to."""

    values: np.ndarray
    tol: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size > 1 and np.any(np.diff(v) < -self.tol):
            raise ValueError("spectrum must be sorted to within tol")
        object.__setattr__(self, "values", v)


def _first_pivots(a0: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivots a0 - x of a first site, each zero replaced by _TINY, and the boolean flags of those zeros."""
    q = a0 - xs
    zeros = q == 0.0
    q[zeros] = _TINY
    return q, zeros


def _float_loop(diag: np.ndarray, off: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counts and zero-pivot flags lane by lane over Python floats: diag (R, n), off (R, n-1), xs (R, m)."""
    first, zeros = _first_pivots(diag[:, :1], xs)
    counts, later = _float_run(first.tolist(), diag[:, 1:], off, xs)
    return (first < 0.0) + counts, zeros | later


def _float_run(q: list, a: np.ndarray, off: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Negative pivots (R, m) as the pivots q (R lists of m floats) run over sites, site chunk by chunk, and zero flags.

    a (R, s) holds the sites' diagonals and off (R, s) their couplings to
    the site before; q ends as the last sites' pivots.  A zero pivot is
    replaced by _TINY, and its lane is flagged in the boolean (R, m).
    Only a pivot that is not negative is tested for zero, so the flag
    costs nothing on the other branch.
    """
    tiny = _TINY  # a local reads faster than a global in the loop
    counts = np.zeros(xs.shape, dtype=np.int64)
    zeros = np.zeros(xs.shape, dtype=bool)
    for k in range(0, a.shape[1], _FLOAT_LOOP_CHUNK):
        chunk = slice(k, k + _FLOAT_LOOP_CHUNK)
        rows = zip(a[:, chunk].tolist(), np.square(off[:, chunk]).tolist(), xs.tolist())
        for r, (a_row, b2_row, row_xs) in enumerate(rows):
            for i, x in enumerate(row_xs):
                qi, c, z = q[r][i], 0, False
                for ak, bk in zip(a_row, b2_row):
                    qi = (ak - x) - bk / qi
                    if qi < 0.0:
                        c += 1
                    elif not qi:
                        qi, z = tiny, True
                q[r][i] = qi
                counts[r, i] += c
                zeros[r, i] |= z
    return counts, zeros


def _block_counts(diag: np.ndarray, off: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_float_loop's counts, its sites run as verified blocks of _BLOCK_SITES (blocks.py), and zero flags.

    Each lane's sites 1 .. n - 1 form blocks, all of which run side by side
    as the lanes of _array_sweep.  Sweep 1 starts block b as if the matrix
    began at the site before it; sweep 2 starts it from sweep 1's end of
    block b - 1 and counts each block's negative pivots.  Blocks that do
    not verify, and the sites past the last block, run through _float_run.
    A floating-point exception other than _array_sweep's zero divide
    raises.  A lane is flagged for a zero pivot in its first site, in any
    block of sweep 2 or in a re-run: a superset of the loop's zeros, since
    an accepted block of sweep 2 holds the loop's pivots.
    """
    length = _BLOCK_SITES
    n_blocks = (diag.shape[1] - 1) // length
    first, zeros = _first_pivots(diag[:, :1], xs)
    # Pivots are (R, m, nb): lane (r, i) in block b.  Row j of a and b2
    # holds site j of every block, one value per matrix and block.
    block_xs = xs[:, :, None]
    ends1, _ = _first_pivots(diag[:, None, :n_blocks * length:length], block_xs)
    a = block_view(diag, length, n_blocks, start=1)[:, :, None, :]
    b2 = block_view(np.square(off), length, n_blocks)[:, :, None, :]
    _array_sweep(ends1, a, b2, block_xs)
    ends2 = np.concatenate([first[:, :, None], ends1[:, :, :-1]], axis=2)
    block_zeros = np.zeros(ends2.shape, dtype=bool)
    negs = _array_sweep(ends2, a, b2, block_xs, block_zeros)
    counts = (first < 0.0) + negs.sum(axis=2)
    zeros |= block_zeros.any(axis=2)

    def rerun(k, redo, v):
        # The lanes of one row run together, sharing its lists of the block's sites.
        span, ends, done = slice(k * length, (k + 1) * length), np.empty(v.size), 0
        for r in np.flatnonzero(redo.any(axis=1)):
            lanes = np.flatnonzero(redo[r])
            q = [v[done:done + lanes.size].tolist()]
            run, hit = _float_run(q, diag[r:r + 1, 1:][:, span], off[r:r + 1, span], xs[r:r + 1, lanes])
            counts[r, lanes] += run[0] - negs[r, lanes, k]
            zeros[r, lanes] |= hit[0]
            ends[done:done + lanes.size] = q[0]
            done += lanes.size
        return ends

    last, reruns = walk_blocks(ends1, ends2, rerun)
    run, hit = _float_run(last.tolist(), diag[:, 1 + n_blocks * length:], off[:, n_blocks * length:], xs)
    logger.debug("Sturm counts: %d lanes of %d sites, %d blocks of %d sites each, %d re-run",
                 xs.size, diag.shape[1], n_blocks, length, reruns)
    return counts + run, zeros | hit


def _array_sweep(q: np.ndarray, a: np.ndarray, b2: np.ndarray, xs: np.ndarray, zeros: np.ndarray | None = None) -> np.ndarray:
    """Negative pivots, of q's shape, as the pivots q run over sites on arrays; q ends as the last sites' pivots.

    a holds one row per site, with a[k] - xs of q's shape, and b2 the
    sites' squared couplings to the site before, as rows that broadcast to
    q's shape.  The sites go a block at a time, of at most
    _ARRAY_BLOCK_ELEMENTS elements (so that it stays in cache) and 255
    sites: a - x for the block in one subtraction, b2's rows spread over
    q's shape (a divide of equal shapes costs less than one that
    broadcasts), two ufunc calls per site that turn the site's row of
    a - x into its pivots in place (divide, subtract), and one compare of
    the block with zero, whose negative pivots are tallied in bytes and
    added to the counts before they could overflow.  About 2-3 us per site up to ~300
    lanes, bound by numpy dispatch, and 2.5 ns per lane and site at 3e4.

    There is no zero test per site.  With division by zero and invalid
    operations raising, a zero pivot at site k makes the divide at site
    k + 1 raise (b^2/0, or 0/0 on a zero coupling), and only then are the
    zero pivots replaced by _TINY, flagged in zeros (boolean, of q's
    shape) if given, and the divide redone, so every lane sees the
    operands the float loop's test gives it (ledger D3).  A zero among the
    last pivots is not negative, as its replacement would not be; it is
    replaced and flagged on the way out.
    """
    t = np.empty_like(q)
    sites = max(1, min(_ARRAY_BLOCK_ELEMENTS // q.size, len(a), 255))
    pivots = np.empty((sites,) + q.shape)
    negs = np.empty(pivots.shape, dtype=bool)
    spread = np.empty(pivots.shape)
    count = np.zeros(q.shape, dtype=np.int64)
    block_tally = np.empty(q.shape, dtype=np.uint8)
    tally = np.zeros_like(block_tally)
    held = 0
    with np.errstate(over="ignore", divide="raise", invalid="raise"):
        for k0 in range(0, len(a), sites):
            s = min(sites, len(a) - k0)
            rows = pivots[:s]
            np.subtract(a[k0:k0 + s], xs, out=rows)
            spread[:s] = b2[k0:k0 + s]
            prev = q
            for row, b2_row in zip(rows, spread[:s]):
                try:
                    np.divide(b2_row, prev, out=t)
                except FloatingPointError:
                    zero = prev == 0.0
                    prev[zero] = _TINY
                    if zeros is not None:
                        zeros |= zero
                    np.divide(b2_row, prev, out=t)
                np.subtract(row, t, out=row)
                prev = row
            q[...] = prev
            np.less(rows, 0.0, out=negs[:s])
            if held + s > 255:
                count += tally
                tally.fill(0)
                held = 0
            np.add.reduce(negs[:s].view(np.uint8), axis=0, out=block_tally)
            tally += block_tally
            held += s
    count += tally
    last = q == 0.0
    q[last] = _TINY
    if zeros is not None:
        zeros |= last
    return count


def _sturm_counts(diag: np.ndarray, off: np.ndarray, xs: np.ndarray, with_zeros: bool = False):
    """Number of eigenvalues strictly below each probe in xs.

    One matrix: diag (n,), off (n-1,) and probes xs (m,) give counts (m,).
    A batch of R matrices of one size: diag (R, n), off (R, n-1) and
    probes xs (R, m), or (m,) shared by every row, give counts (R, m); row
    r counts matrix r with exactly the arithmetic of its one-matrix call,
    so its counts are identical.

    Sturm count (Barth, Martin & Wilkinson 1967) in ratio form:
    the pivots q_k = (a_k - x) - b_{k-1}^2 / q_{k-1} of the LDL^T
    factorisation of T - x, of which as many are negative as eigenvalues
    lie below x.  A zero pivot (either sign) is replaced by a positive
    tiny, which fixes the strict-below convention (a probe at an
    eigenvalue does not count it) and keeps the recurrence alive; the next
    pivot may then overflow to -inf, which counts as negative and
    contributes nothing beyond it.  Pivots stay in range without
    rescaling, so a probe far below the entries' scale (1e-224 against a
    zero block) still counts exactly.

    Every loop shape starts from _first_pivots and does the same
    arithmetic with the same zero rule, so the counts do not depend on
    which one runs.  Up to _FLOAT_LOOP_LANES lanes (matrix-probe pairs)
    run one loop over Python floats each (_float_run), about 0.1 us per
    lane and site; on a matrix of at least _BLOCK_MIN * _BLOCK_SITES
    sites they run as verified blocks (_block_counts) instead, and fall
    back to the float loop on any floating-point exception that is not a
    zero pivot's.  More lanes share one loop over the sites on arrays
    (_array_sweep), the coefficients transposed to site-major rows.  One
    matrix runs every loop shape as a batch of one: diag (1, n), off
    (1, n-1) and probes (1, m), its results reshaped to the probes'
    shape.

    With with_zeros, a boolean array of the counts' shape comes back as
    well, set in every lane where a pivot was exactly zero before _TINY
    replaced it (the verified blocks may also set it where only a block
    of their second sweep that did not verify met a zero).  Where it is
    clear, the pivots are those of IEEE arithmetic with no replacement,
    which is what chain.empirical_idos needs to read the count at -x off
    the one at x (ledger D12).
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if diag.ndim == 1:
        shape = xs.shape
        diag, off, xs = diag[None], off[None], xs.reshape(1, -1)
    else:
        xs = np.broadcast_to(xs, (diag.shape[0], xs.shape[-1]))
        shape = xs.shape
    n = diag.shape[1]
    if xs.size <= _FLOAT_LOOP_LANES:
        found = None
        if (n - 1) // _BLOCK_SITES >= _BLOCK_MIN:
            try:
                found = _block_counts(diag, off, xs)
            except FloatingPointError:
                logger.debug("Sturm counts: %d lanes of %d sites fell back to the float loop", xs.size, n)
        counts, zeros = _float_loop(diag, off, xs) if found is None else found
    else:
        # Site-major rows (n, R, 1), each a column of coefficients across
        # matrices, that broadcast against the probes (R, m).
        a = np.ascontiguousarray(diag.T)[:, :, None]
        b2 = np.multiply(off.T, off.T, order="C")[:, :, None]
        q, zeros = _first_pivots(a[0], xs)
        counts = (q < 0.0).astype(np.int64)
        counts += _array_sweep(q, a[1:], b2, xs, zeros)
    counts, zeros = counts.reshape(shape), zeros.reshape(shape)
    return (counts, zeros) if with_zeros else counts


def count_below(t: SymTridiag, x: float) -> int:
    """Exact number of eigenvalues of t strictly below x (a NaN probe is refused)."""
    return int(count_below_many(t, np.array([float(x)]))[0])


def count_below_many(t: SymTridiag, xs) -> np.ndarray:
    """Vectorised count_below over an array of probe points."""
    xs = np.asarray(xs, dtype=float)
    if np.isnan(xs).any():
        raise ValueError("probe points must not be NaN")
    return _sturm_counts(t.diag, t.off, xs)


def eigenvalues(
    t: SymTridiag,
    tol: float | None = None,
    ranks: np.ndarray | None = None,
    bounds: tuple[float, float] | None = None,
) -> Spectrum:
    """Eigenvalues by Sturm bisection, each bracketed to width <= tol.

    By default all n are computed; `ranks` (1-based integers, strictly
    ascending, within 1..n) restricts the computation to selected order
    statistics, and `bounds` overrides the Gershgorin bracket when sharper
    enclosures are known.  This is the one-matrix case of eigenvalues_many.
    """
    return eigenvalues_many([t], tol, ranks, None if bounds is None else [bounds])[0]


def eigenvalues_many(
    ts: Sequence[SymTridiag],
    tol: float | None = None,
    ranks: np.ndarray | None = None,
    bounds: Sequence[tuple[float, float]] | None = None,
) -> list[Spectrum]:
    """Sturm bisection of R equal-size matrices at once, one Spectrum each.

    `tol` and `ranks` are shared by every matrix; `bounds`, if given, is
    one (lo, hi) bracket per matrix.  Each matrix gets the bracket, the
    default tol (1e-12 of its bracket width, at least 1e-12) and the
    iteration count that a call on it alone would get.  Every value is
    bitwise that of the plain loop, which takes mid = (lo + hi) / 2 as hi
    when count_below(mid) >= rank and as lo otherwise, until the widest
    bracket is within tol or the iterations run out (ledger D9).  The count
    is monotone in the probe, so a midpoint at or above a probe counted
    >= rank is a take and one at or below a probe counted < rank is not;
    a step sweeps only the other midpoints, all in one sweep.  Where a
    matrix has at most _HINT_SITES_PER_RANK sites per wanted rank, the
    first sweep also counts two guards around a LAPACK estimate of each
    wanted eigenvalue (_guards), which leave few midpoints to sweep.  A
    row whose estimates fail, or whose guards are not finite or not counted
    in order, runs without them and sweeps every midpoint.

    Ranks outside 1..n or not strictly ascending, and a bracket that does
    not hold the wanted ranks (checked by one Sturm count at its ends),
    raise ValueError before any bisection.
    """
    ts = list(ts)
    if not ts:
        raise ValueError("need at least one matrix")
    n = ts[0].n
    if any(t.n != n for t in ts):
        raise ValueError("matrices of a batch must have equal size")
    if bounds is None:
        brackets = [t.gershgorin() for t in ts]
    else:
        brackets = [(float(b[0]), float(b[1])) for b in bounds]
        if len(brackets) != len(ts):
            raise ValueError("need one bracket per matrix")
        if not np.isfinite(brackets).all():
            raise ValueError("bounds must be finite")
    if ranks is None:
        want = np.arange(1, n + 1)
    else:
        want = np.asarray(ranks)
        if want.ndim != 1 or not want.size or not np.issubdtype(want.dtype, np.integer):
            raise ValueError("ranks must be a non-empty 1-d array of integers")
        if want[0] < 1 or want[-1] > n or np.any(np.diff(want) <= 0):
            raise ValueError(f"ranks must be strictly ascending within 1..{n}")
        want = want.astype(np.int64)
    tols, los, his, n_iters = [], [], [], []
    for lo0, hi0 in brackets:
        diameter = max(hi0 - lo0, 1.0)
        row_tol = 1e-12 * diameter if tol is None else tol
        if row_tol <= 0:
            raise ValueError("tol must be positive")
        lo, hi = lo0 - 1e-12 * diameter - 1e-300, hi0 + 1e-12 * diameter
        tols.append(row_tol)
        los.append(lo)
        his.append(hi)
        n_iters.append(max(int(math.ceil(math.log2((hi - lo) / row_tol))) + 2, 8))
    diag = np.stack([t.diag for t in ts])
    off = np.stack([t.off for t in ts])
    # One sweep counts the bracket ends, to check them, and the guards.
    no_probes = np.empty((len(ts), 0))
    ends = no_probes if bounds is None else np.column_stack([los, his])
    guards = _guards(diag, off, want) if n <= _HINT_SITES_PER_RANK * want.size else no_probes
    if ends.size or guards.size:
        counts = _sturm_counts(diag, off, np.nan_to_num(np.hstack([ends, guards])))
    if bounds is not None:
        # The k-th eigenvalue lies in [lo, hi) exactly when
        # count_below(lo) < k <= count_below(hi).
        bad = np.flatnonzero((counts[:, 0] >= want[0]) | (counts[:, 1] < want[-1]))
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"bracket {brackets[i]} of matrix {i} does not hold ranks {want[0]}..{want[-1]}: "
                f"{counts[i, 0]} eigenvalues lie below it and {n - counts[i, 1]} at or above it")
    lo, hi = (np.repeat(np.array(v)[:, None], want.size, axis=1) for v in (los, his))
    # The largest probe counted below each rank and the smallest counted at
    # or above it: a midpoint beyond either is decided without a count.
    below, above = np.full(lo.shape, -np.inf), np.full(lo.shape, np.inf)
    if guards.size:
        counts = counts[:, ends.shape[1]:]
        for i in np.flatnonzero(np.isfinite(guards).all(axis=1) & (np.diff(counts, axis=1) >= 0).all(axis=1)):
            k = np.searchsorted(counts[i], want)
            padded = np.r_[-np.inf, guards[i], np.inf]
            below[i], above[i] = padded[k], padded[k + 1]
    # Working state of the unfinished rows, in their original order.
    rows = np.arange(len(ts))
    row_tol, n_iter = np.array(tols), np.array(n_iters)
    out: list[Spectrum | None] = [None] * len(ts)
    step = 0
    while rows.size:
        step += 1
        mid = 0.5 * (lo + hi)
        take = mid >= above
        ask = ~take & (mid > below)
        if ask.any():
            r, j = np.nonzero(ask)
            lane = np.cumsum(ask, axis=1)[r, j] - 1
            probes = np.zeros((rows.size, lane.max() + 1))  # rows with fewer pad with 0, whose count is not read
            probes[r, lane] = mid[r, j]
            take[r, j] = _sturm_counts(diag, off, probes)[r, lane] >= want[j]
            above = np.where(ask & take, mid, above)
            below = np.where(ask & ~take, mid, below)
        hi = np.where(take, mid, hi)
        lo = np.where(take, lo, mid)
        stop = (np.max(hi - lo, axis=1) <= row_tol) | (step >= n_iter)
        if stop.any():
            for i in np.flatnonzero(stop):
                out[rows[i]] = Spectrum(0.5 * (lo[i] + hi[i]), tol=tols[rows[i]])
            keep = ~stop
            rows, diag, off, lo, hi, below, above, row_tol, n_iter = (
                a[keep] for a in (rows, diag, off, lo, hi, below, above, row_tol, n_iter))
    return out


def _estimates(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """All n eigenvalues of one matrix, ascending, from LAPACK dsterf (root-free QL/QR)."""
    # Only bisection needs scipy.linalg, and importing it costs about 0.25 s.
    from scipy.linalg import lapack

    values, info = lapack.dsterf(diag, off if off.size else [0.0])  # its wrapper wants one coupling at n = 1
    if info:
        raise np.linalg.LinAlgError(f"dsterf failed to converge ({info} off-diagonals left)")
    return values


def _guards(diag: np.ndarray, off: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Two probes per wanted rank around its _estimates value, sorted along each row; NaN where those fail."""
    guards = np.full((diag.shape[0], 2 * want.size), np.nan)
    for i in range(diag.shape[0]):
        try:
            est = _estimates(diag[i], off[i])
        except np.linalg.LinAlgError:
            continue
        delta = _GUARD_ULPS * math.sqrt(diag.shape[1]) * np.finfo(float).eps * max(abs(est[0]), abs(est[-1]))
        guards[i] = np.r_[est[want - 1] - delta, est[want - 1] + delta]
    return np.sort(guards, axis=1)


def tracelog_check(lam: AntisymTridiag, x: float, m_terms: int) -> tuple[float, float]:
    """Two routes to sum_j log(1 + x w_j^2) for the anti-symmetric matrix.

    Series route: (1/2) Tr log(I - x Lambda^2) expanded in powers of x.
    Direct route: eigenvalues of the Hermitian image.  Both are returned;
    they agree to the truncation error inside the convergence radius.
    """
    h = lam.hermitian_image()
    spec = eigenvalues(h)
    rho2 = float(np.max(np.abs(spec.values))) ** 2
    if abs(x) * rho2 >= 1.0:
        raise ValueError(
            f"|x|*rho(Lambda)^2 = {abs(x) * rho2:.3g} >= 1: series does not converge"
        )
    direct = 0.5 * float(np.sum(np.log1p(x * spec.values**2)))

    dense = h.to_dense()
    b = dense @ dense  # -Lambda^2 in the real image
    power = np.eye(lam.n)
    series = 0.0
    for m in range(1, m_terms + 1):
        power = power @ b
        # Tr Lambda^{2m} = (-1)^m Tr (H^2)^m
        series += -0.5 * (x**m) * ((-1.0) ** m) * np.trace(power) / m
    return float(series), direct
