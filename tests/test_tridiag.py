import contextlib
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import eigh_tridiagonal

from randchain import tridiag
from randchain.tridiag import (
    AntisymTridiag,
    SymTridiag,
    count_below,
    count_below_many,
    eigenvalues,
    eigenvalues_many,
    tracelog_check,
)


def test_count_below_two_by_two_symmetric():
    t = SymTridiag(np.zeros(2), np.array([2.0]))
    assert count_below(t, 0.0) == 1  # eigenvalues are +-2


def test_count_below_three_by_three():
    t = SymTridiag(np.zeros(3), np.ones(2))
    assert count_below(t, -1.0) == 1  # eigenvalues -sqrt2, 0, sqrt2
    assert count_below(t, 0.0) == 1
    assert count_below(t, 1.5) == 3


def test_count_matches_bisection_intervals():
    rng = np.random.default_rng(11)
    t = SymTridiag(rng.normal(size=50), rng.uniform(0.1, 2.0, 49))
    spec = eigenvalues(t, tol=1e-13)
    for _ in range(100):
        x1, x2 = np.sort(rng.uniform(-4, 4, 2))
        expected = int(np.sum((spec.values >= x1) & (spec.values < x2)))
        assert count_below(t, x2) - count_below(t, x1) == expected


def test_count_monotone_in_probe():
    rng = np.random.default_rng(2)
    t = SymTridiag(rng.normal(size=80), rng.uniform(0.1, 1.5, 79))
    xs = np.sort(rng.uniform(-5, 5, 60))
    counts = count_below_many(t, xs)
    assert np.all(np.diff(counts) >= 0)


def test_zero_diag_count_at_zero_minus():
    rng = np.random.default_rng(3)
    for n in (5, 31, 101):
        t = SymTridiag(np.zeros(n), rng.uniform(0.2, 2.0, n - 1))
        assert count_below(t, 0.0) == (n - 1) // 2
        # symmetric spectrum
        spec = eigenvalues(t).values
        assert np.max(np.abs(spec + spec[::-1])) < 1e-9


def test_count_exact_against_dense_reference():
    rng = np.random.default_rng(13)
    t = SymTridiag(rng.normal(size=500), rng.normal(size=499))
    ev = np.linalg.eigvalsh(t.to_dense())
    for x in rng.uniform(-3.5, 3.5, 20):
        assert count_below(t, float(x)) == int(np.sum(ev < x))


def test_count_survives_rescaling_large_entries():
    # Entries chosen so the plain polynomial recurrence overflows quickly.
    rng = np.random.default_rng(4)
    n = 400
    t = SymTridiag(rng.normal(size=n) * 1e8, rng.uniform(0.5, 1.0, n - 1) * 1e8)
    ref = eigh_tridiagonal(t.diag, t.off, eigvals_only=True)
    for x in rng.uniform(-2e8, 2e8, 10):
        assert count_below(t, float(x)) == int(np.sum(ref < x))


def test_couplings_with_an_overflowing_square_are_refused():
    # b^2 overflows past |b| ~ 1.34e154; the Sturm recurrence divides by it.
    with pytest.raises(ValueError, match="finite square"):
        SymTridiag(np.zeros(3), [1e160, 1e160])
    with pytest.raises(ValueError, match="finite square"):
        AntisymTridiag(np.array([1.0, -1e155])).hermitian_image()
    # Just below, both loop shapes still count as the dense solver does.
    rng = np.random.default_rng(8)
    t = SymTridiag(rng.normal(size=50) * 1e150, rng.uniform(-1.0, 1.0, 49) * 1e150)
    ev = np.linalg.eigvalsh(t.to_dense())
    probes = np.concatenate([rng.uniform(-3e150, 3e150, 20), 0.5 * (ev[1:] + ev[:-1])])
    want = np.array([np.sum(ev < x) for x in probes])
    assert probes.size > tridiag._FLOAT_LOOP_LANES
    assert np.array_equal(count_below_many(t, probes), want)
    assert [count_below(t, float(x)) for x in probes] == want.tolist()


def test_count_with_zero_offdiagonal_blocks():
    # A zero coupling decouples the matrix; counts stay exact.
    diag = np.array([0.3, -1.2, 0.7, 2.0, -0.5])
    off = np.array([0.9, 0.0, 1.1, 0.0])
    t = SymTridiag(diag, off)
    ev = np.linalg.eigvalsh(t.to_dense())
    for x in (-2.0, -0.4, 0.0, 0.5, 1.0, 3.0):
        assert count_below(t, x) == int(np.sum(ev < x))


# ----------------------------------------------------------------------
# property tests of the batched Sturm kernel
# ----------------------------------------------------------------------


def _lanes(diag, probes):
    return probes.size if np.ndim(diag) == 1 else np.shape(diag)[0] * probes.shape[-1]


def _both_shapes(diag, off, probes):
    """Kernel counts from the float loop, checked against the array loop.

    The probes given run through the per-lane float loop (its lane
    threshold raised to theirs if need be); tiled along their last axis
    past _FLOAT_LOOP_LANES they force the array loop, whose counts must be
    the same tiles, also when its blocks of sites are 1, 2 or 3 sites
    long, so that pivots (zero ones included) cross block boundaries.  The
    float loop must also give the same counts when its site chunks are
    short, so that pivots cross chunk boundaries, and so must the verified
    blocks of 1, 2, 3 and 5 sites (ledger D11), whose blocks verify or
    re-run, also when their sweeps go 1, 2 or 3 sites at a time within a
    block.
    """
    float_lanes = tridiag._FLOAT_LOOP_LANES
    try:
        tridiag._FLOAT_LOOP_LANES = max(float_lanes, _lanes(diag, probes))
        counts = tridiag._sturm_counts(diag, off, probes)
    finally:
        tridiag._FLOAT_LOOP_LANES = float_lanes
    reps = tridiag._FLOAT_LOOP_LANES // probes.shape[-1] + 1
    tiled = np.tile(probes, reps)
    assert np.array_equal(tridiag._sturm_counts(diag, off, tiled), np.tile(counts, reps))
    block = tridiag._ARRAY_BLOCK_ELEMENTS
    try:
        for sites in (1, 2, 3):
            tridiag._ARRAY_BLOCK_ELEMENTS = sites * _lanes(diag, tiled)
            assert np.array_equal(tridiag._sturm_counts(diag, off, tiled), np.tile(counts, reps))
    finally:
        tridiag._ARRAY_BLOCK_ELEMENTS = block
    chunk = tridiag._FLOAT_LOOP_CHUNK
    try:
        tridiag._FLOAT_LOOP_CHUNK = 3
        tridiag._FLOAT_LOOP_LANES = max(float_lanes, _lanes(diag, probes))
        assert np.array_equal(tridiag._sturm_counts(diag, off, probes), counts)
    finally:
        tridiag._FLOAT_LOOP_CHUNK = chunk
        tridiag._FLOAT_LOOP_LANES = float_lanes
    with _verified_blocks():
        tridiag._FLOAT_LOOP_LANES = max(float_lanes, _lanes(diag, probes))
        for sites, chunk in _block_chunks(diag, probes):
            tridiag._BLOCK_SITES, tridiag._ARRAY_BLOCK_ELEMENTS = sites, chunk
            assert np.array_equal(tridiag._sturm_counts(diag, off, probes), counts)
    return counts


@contextlib.contextmanager
def _verified_blocks(sites: int = 2):
    """Few-lane counts run as verified blocks of the given sites on any matrix of two sites or more."""
    keep = tridiag._BLOCK_SITES, tridiag._BLOCK_MIN, tridiag._FLOAT_LOOP_LANES, tridiag._ARRAY_BLOCK_ELEMENTS
    tridiag._BLOCK_SITES, tridiag._BLOCK_MIN = sites, 1
    try:
        yield
    finally:
        tridiag._BLOCK_SITES, tridiag._BLOCK_MIN, tridiag._FLOAT_LOOP_LANES, tridiag._ARRAY_BLOCK_ELEMENTS = keep


def _block_chunks(diag, probes):
    """(block sites, _ARRAY_BLOCK_ELEMENTS) pairs: blocks of 1, 2, 3 and 5 sites swept whole and 1, 2 or 3 sites at a time."""
    whole = tridiag._ARRAY_BLOCK_ELEMENTS
    for sites in (1, 2, 3, 5):
        yield sites, whole
        # The sweeps' pivots hold every lane of every block.
        blocks = max((np.shape(diag)[-1] - 1) // sites, 1)
        for chunk in range(1, min(sites, 4)):
            yield sites, chunk * _lanes(diag, probes) * blocks


@st.composite
def _sturm_batches(draw):
    """R equal-size tridiagonals with per-row probes that include ties.

    Diagonals are zero or drawn from [-4, 4]; off-diagonals span twelve
    decades with either sign, and some are exactly zero (decoupled
    blocks).  Each row probes 0, some of its own dense eigenvalues and a
    few arbitrary points.
    """
    r = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        diag = np.zeros((r, n))
    else:
        diag = draw(hnp.arrays(float, (r, n), elements=st.floats(-4, 4)))
    decades = draw(hnp.arrays(float, (r, n - 1), elements=st.floats(-6, 6)))
    sign = draw(hnp.arrays(float, (r, n - 1), elements=st.sampled_from([-1.0, 0.0, 1.0, 1.0, 1.0])))
    off = sign * 10.0**decades
    n_eig = draw(st.integers(0, min(n, 4)))
    picks = draw(st.lists(st.integers(0, n - 1), min_size=n_eig, max_size=n_eig))
    free = draw(hnp.arrays(float, (r, 3), elements=st.floats(-1e6, 1e6)))
    probes = np.empty((r, 1 + n_eig + 3))
    for i in range(r):
        ev = np.linalg.eigvalsh(SymTridiag(diag[i], off[i]).to_dense())
        probes[i] = np.concatenate([[0.0], ev[picks], free[i]])
    return diag, off, probes


@settings(max_examples=200, deadline=None)
@given(batch=_sturm_batches())
# Two counts the polynomial form of the recurrence got wrong: zero blocks
# ahead of a coupled pair (eigenvalue (1 - sqrt 5)/2 missed at 0), and a
# zero block probed at 5.6e-224, where p_2 = x^2 underflowed.
@example(batch=(np.r_[np.zeros(7), 1.0][None, :], np.r_[np.zeros(6), -1.0][None, :], np.zeros((1, 4))))
@example(batch=(np.zeros((1, 2)), np.zeros((1, 1)), np.array([[0.0, 5.58121599e-224]])))
def test_batched_counts_match_single_and_dense(batch):
    diag, off, probes = batch
    counts = _both_shapes(diag, off, probes)
    assert counts.shape == probes.shape
    shared = _both_shapes(diag, off, probes[0])
    for i in range(diag.shape[0]):
        t = SymTridiag(diag[i], off[i])
        assert np.array_equal(counts[i], count_below_many(t, probes[i]))
        assert np.array_equal(counts[i], _both_shapes(t.diag, t.off, probes[i]))
        assert np.array_equal(shared[i], count_below_many(t, probes[0]))
        # A probe at a computed eigenvalue may fall on either side of the
        # true one: the count lies between the dense counts just below
        # and just above it.
        ev = np.linalg.eigvalsh(t.to_dense())
        tol = 1e-9 * max(float(np.max(np.abs(ev))), 1e-300)
        lo = np.sum(ev[None, :] < probes[i][:, None] - tol, axis=1)
        hi = np.sum(ev[None, :] < probes[i][:, None] + tol, axis=1)
        assert np.all((lo <= counts[i]) & (counts[i] <= hi))


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    decades=st.lists(st.floats(-6, 6), min_size=4, max_size=4),
)
@example(sizes=[1, 2, 8], decades=[0.0, -4.0, 0.0, 0.0])  # the polynomial form counted 4
def test_zero_diagonal_count_at_zero_is_exact(sizes, decades):
    # Zero couplings split a zero-diagonal matrix into blocks of the given
    # sizes; each block's spectrum is symmetric with one zero eigenvalue
    # when its size is odd, so exactly sum(size // 2) lie strictly below 0.
    n = sum(sizes)
    off = np.array([10.0 ** decades[k % 4] for k in range(n - 1)])
    off[np.cumsum(sizes)[:-1] - 1] = 0.0
    diag = np.zeros(n)
    want = sum(k // 2 for k in sizes)
    assert count_below(SymTridiag(diag, off), 0.0) == want
    batched = _both_shapes(np.stack([diag, diag]), np.stack([off, -off]), np.zeros((2, 1)))
    assert np.array_equal(batched, [[want], [want]])


@settings(max_examples=100, deadline=None)
@given(diag=hnp.arrays(float, st.integers(1, 12), elements=st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.0])))
def test_diagonal_matrix_ties_count_strictly_below(diag):
    # With no coupling the eigenvalues are the diagonal entries exactly;
    # probing at each of them counts only the strictly smaller ones.
    off = np.zeros(diag.size - 1)
    probes = np.unique(diag)
    want = np.array([np.sum(diag < x) for x in probes])
    assert np.array_equal(count_below_many(SymTridiag(diag, off), probes), want)
    batched = _both_shapes(diag[None, :], off[None, :], probes[None, :])
    assert np.array_equal(batched[0], want)


@st.composite
def _probe_ladders(draw):
    """A matrix and sorted probes crowded about some of its eigenvalues.

    Each picked eigenvalue gets a ladder of nextafter steps on both sides
    and a few points within 1e-9 of the scale, which runs over twelve
    decades; diagonals may be zero and couplings exactly zero.
    """
    n = draw(st.integers(1, 30))
    scale = 10.0 ** draw(st.floats(-6, 6))
    if draw(st.booleans()):
        diag = np.zeros(n)
    else:
        diag = scale * draw(hnp.arrays(float, n, elements=st.floats(-4, 4)))
    sign = draw(hnp.arrays(float, n - 1, elements=st.sampled_from([0.0, 1.0, 1.0, -1.0])))
    off = scale * sign * draw(hnp.arrays(float, n - 1, elements=st.floats(0.1, 2.0)))
    ev = np.linalg.eigvalsh(SymTridiag(diag, off).to_dense())
    steps = draw(st.integers(1, 100))
    probes = []
    for x in ev[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))]:
        for toward in (-np.inf, np.inf):
            rung = x
            for _ in range(steps):
                rung = np.nextafter(rung, toward)
                probes.append(rung)
        probes += [x, *(x + 1e-9 * scale * draw(hnp.arrays(float, 5, elements=st.floats(-1, 1))))]
    return diag, off, np.unique(probes)


@settings(max_examples=100, deadline=None)
@given(ladder=_probe_ladders())
# Wilkinson's W21+, whose top two eigenvalues lie 7e-14 apart, probed
# across that pair.
@example(ladder=(np.abs(np.arange(21.0) - 10), np.ones(20),
                 np.unique(np.r_[np.linspace(10.74, 10.75, 50), np.linspace(10.746194182903, 10.746194182904, 80)])))
def test_counts_are_monotone_in_the_probe(ladder):
    # The guided bisection (ledger D9) decides a step from counts at other
    # probes, which is sound only if the floating-point count never falls
    # as the probe rises; both loop shapes give these counts (_both_shapes).
    diag, off, probes = ladder
    counts = _both_shapes(diag, off, probes)
    assert np.all(np.diff(counts) >= 0)


def test_array_loop_zero_pivots_at_block_boundaries():
    # Blocks of 4 sites (1-4, 5-8, 9): probes at 0.5 meet exact zero pivots
    # at sites 4, 5 and 9, the last site of a block, the first of the next
    # and the last of the matrix.  Row 0 decouples those sites, so the
    # divides after its zero pivots are 0/0; row 1 couples sites 4 and 5,
    # so the divide after site 4 is b^2/0.  Other probes cross the same
    # boundaries with nonzero pivots.
    diag = np.array([[1.0, -0.3, 2.0, 0.7, 0.5, 0.5, -1.0, 0.2, 1.4, 0.5]] * 2)
    off = np.array([
        [0.8, 1.1, 0.6, 0.0, 0.0, 0.0, 0.9, 0.4, 0.0],
        [0.8, 1.1, 0.6, 0.0, 1.3, 0.7, 0.9, 0.4, 0.0],
    ])
    probes = np.array([0.5, -1.0, 2.0, 0.0])
    want = [tridiag._sturm_counts(diag[i], off[i], probes) for i in range(2)]
    for i in range(2):
        ev = np.linalg.eigvalsh(SymTridiag(diag[i], off[i]).to_dense())
        assert np.array_equal(want[i][1:], np.sum(ev[None, :] < probes[1:, None], axis=1))
    tiled = np.tile(probes, 30)  # 2 * 120 lanes, past _FLOAT_LOOP_LANES
    block = tridiag._ARRAY_BLOCK_ELEMENTS
    try:
        for lanes, per_row in ((240, np.tile(want, 30)), (120, np.tile(want[0], 30))):
            tridiag._ARRAY_BLOCK_ELEMENTS = 4 * lanes
            rows = (diag, off) if lanes == 240 else (diag[0], off[0])
            assert np.array_equal(tridiag._sturm_counts(*rows, tiled), per_row)
    finally:
        tridiag._ARRAY_BLOCK_ELEMENTS = block


def test_verified_blocks_zero_pivots_at_block_boundaries(caplog):
    # Blocks of 4 sites (1-4, 5-8) and the rest (9): probes at 0.5 meet
    # exact zero pivots at sites 4, 5 and 9, the last site of a block, the
    # first of the next and the last of the matrix, after zero couplings
    # (row 0) and a coupled pair (row 1), as in the array loop's test.
    diag = np.array([[1.0, -0.3, 2.0, 0.7, 0.5, 0.5, -1.0, 0.2, 1.4, 0.5]] * 2)
    off = np.array([
        [0.8, 1.1, 0.6, 0.0, 0.0, 0.0, 0.9, 0.4, 0.0],
        [0.8, 1.1, 0.6, 0.0, 1.3, 0.7, 0.9, 0.4, 0.0],
    ])
    probes = np.array([0.5, -1.0, 2.0, 0.0])
    want = np.array([tridiag._sturm_counts(diag[i], off[i], probes) for i in range(2)])
    caplog.set_level(logging.DEBUG, logger="randchain.tridiag")
    with _verified_blocks(4):
        assert np.array_equal(tridiag._sturm_counts(diag, off, probes), want)
        for i in range(2):
            assert np.array_equal(tridiag._sturm_counts(diag[i], off[i], probes), want[i])
    assert "Sturm counts: 8 lanes of 10 sites, 2 blocks of 4 sites each" in caplog.messages[0]


def test_verified_blocks_on_a_long_chain_verify_and_re_run(caplog):
    # A two-point chain of 6001 masses probed across its band, in blocks
    # of 256 sites: probes high in the band meet within a block, the
    # lowest re-run, and the counts are the float loop's.
    masses = np.where(np.random.default_rng(4).random(6001) < 0.3, 1.0, 2.0)
    t = SymTridiag(2.0 / masses, -1.0 / np.sqrt(masses[:-1] * masses[1:]))
    probes = np.linspace(0.02, 4.4, 12)
    want = tridiag._sturm_counts(t.diag, t.off, probes)
    caplog.set_level(logging.DEBUG, logger="randchain.tridiag")
    with _verified_blocks(256):
        assert np.array_equal(count_below_many(t, probes), want)
    logged = re.fullmatch(r"Sturm counts: 12 lanes of 6001 sites, 23 blocks of 256 sites each, (\d+) re-run",
                          caplog.messages[-1])
    assert logged and 0 < int(logged.group(1)) < 12 * 22


def test_verified_blocks_fall_back_to_the_float_loop(monkeypatch, caplog):
    # A floating-point exception in a sweep other than the zero pivots'
    # divide sends the whole call to the float loop.
    def raising(*args):
        raise FloatingPointError("invalid value")

    rng = np.random.default_rng(9)
    t = SymTridiag(rng.normal(size=40), rng.uniform(0.2, 1.5, 39))
    probes = np.linspace(-3.0, 3.0, 5)
    want = tridiag._sturm_counts(t.diag, t.off, probes)
    monkeypatch.setattr(tridiag, "_array_sweep", raising)
    caplog.set_level(logging.DEBUG, logger="randchain.tridiag")
    with _verified_blocks(4):
        assert np.array_equal(count_below_many(t, probes), want)
    assert caplog.messages == ["Sturm counts: 5 lanes of 40 sites fell back to the float loop"]


def test_verified_blocks_keep_dos_tail_in_the_float_loop():
    # Probes in the Dyson tail re-run every block, so chains of 20001
    # sites, the benchmark's tail shape, stay in the float loop (ledger D11).
    assert 20000 < tridiag._BLOCK_SITES * tridiag._BLOCK_MIN <= 100000


def _zero_flags(diag, off, probes):
    """Counts and zero-pivot flags of the float loop, checked against the other loop shapes.

    The array loop (tiled past _FLOAT_LOOP_LANES, in blocks of 1, 2 and 3
    sites and of the default size) and the float loop in chunks of 3
    sites flag exactly the same lanes; verified blocks of 1, 2, 3 and 5
    sites, swept whole and 1, 2 or 3 sites at a time, flag at least those
    (ledger D12).  All give the same counts.
    """
    float_lanes, chunk, block = tridiag._FLOAT_LOOP_LANES, tridiag._FLOAT_LOOP_CHUNK, tridiag._ARRAY_BLOCK_ELEMENTS
    try:
        tridiag._FLOAT_LOOP_LANES = max(float_lanes, _lanes(diag, probes))
        counts, zeros = tridiag._sturm_counts(diag, off, probes, with_zeros=True)
        assert counts.shape == zeros.shape == np.broadcast_shapes(probes.shape, np.shape(diag)[:-1] + (1,))
        tridiag._FLOAT_LOOP_CHUNK = 3
        got = tridiag._sturm_counts(diag, off, probes, with_zeros=True)
        assert np.array_equal(got[0], counts) and np.array_equal(got[1], zeros)
        tridiag._FLOAT_LOOP_LANES, tridiag._FLOAT_LOOP_CHUNK = float_lanes, chunk
        reps = float_lanes // probes.shape[-1] + 1
        tiled = np.tile(probes, reps)
        for sites in (1, 2, 3, None):
            tridiag._ARRAY_BLOCK_ELEMENTS = block if sites is None else sites * _lanes(diag, tiled)
            got = tridiag._sturm_counts(diag, off, tiled, with_zeros=True)
            assert np.array_equal(got[0], np.tile(counts, reps)) and np.array_equal(got[1], np.tile(zeros, reps))
    finally:
        tridiag._FLOAT_LOOP_LANES, tridiag._FLOAT_LOOP_CHUNK, tridiag._ARRAY_BLOCK_ELEMENTS = float_lanes, chunk, block
    with _verified_blocks():
        tridiag._FLOAT_LOOP_LANES = max(float_lanes, _lanes(diag, probes))
        for sites, chunk in _block_chunks(diag, probes):
            tridiag._BLOCK_SITES, tridiag._ARRAY_BLOCK_ELEMENTS = sites, chunk
            got = tridiag._sturm_counts(diag, off, probes, with_zeros=True)
            assert np.array_equal(got[0], counts) and np.all(got[1] >= zeros)
    return counts, zeros


@st.composite
def _zero_diagonal_batches(draw):
    """R zero-diagonal tridiagonals and probes >= 0: 0, some |eigenvalues| of row 0 and arbitrary points.

    Couplings are often exactly 1, so that runs of a pure chain meet
    exact zero pivots; the rest span twelve decades with either sign,
    and some are zero (decoupled blocks).  The probes are shared by the
    rows or given per row.
    """
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    decades = draw(hnp.arrays(float, (r, n - 1), elements=st.just(0.0) | st.floats(-6, 6)))
    sign = draw(hnp.arrays(float, (r, n - 1), elements=st.sampled_from([-1.0, 0.0, 1.0, 1.0, 1.0])))
    off = sign * 10.0**decades
    ev = np.abs(np.linalg.eigvalsh(SymTridiag(np.zeros(n), off[0]).to_dense()))
    picks = draw(st.lists(st.integers(0, n - 1), max_size=4))
    free = draw(st.lists(st.floats(0.0, 1e3) | st.sampled_from([1.0, 2.0, math.sqrt(2.0)]), min_size=1, max_size=3))
    probes = np.concatenate([[0.0], ev[picks], free])
    if draw(st.booleans()):
        probes = np.tile(probes, (r, 1))
    return np.zeros((r, n)), off, probes


@settings(max_examples=150, deadline=None)
@given(batch=_zero_diagonal_batches())
@example(batch=(np.zeros((1, 5)), np.ones((1, 4)), np.array([0.0, 1.0, math.sqrt(2.0)])))
def test_zero_diagonal_counts_mirror_where_no_pivot_is_zero(batch):
    # For a zero diagonal the pivots at -x are the exact negatives of those
    # at x until one is zero, so count(-x) = n - count(x) in every lane not
    # flagged; a zero at x is a zero at -x, so the flags mirror too.
    diag, off, probes = batch
    up, zeros = _zero_flags(diag, off, probes)
    down, zeros_down = _zero_flags(diag, off, -probes)
    assert np.array_equal(zeros_down, zeros)
    assert np.array_equal(down[~zeros], diag.shape[1] - up[~zeros])
    assert np.array_equal(up, _both_shapes(diag, off, probes))
    assert np.array_equal(down, _both_shapes(diag, off, -probes))


@pytest.mark.parametrize("off, x, counts, flagged", [
    # Couplings (1, 1): eigenvalues 0 and +-sqrt 2.
    ((1.0, 1.0), 0.0, (1, 1), True),
    ((1.0, 1.0), 1.0, (2, 1), True),
    ((1.0, 1.0), 2.0, (3, 0), False),
    # Couplings (1, 1, 1, 1): eigenvalues 0, +-1 and +-sqrt 3.  At x = 1
    # the mirror would read 5 - 3 = 2 below -1, where one lies.
    ((1.0,) * 4, 0.0, (2, 2), True),
    ((1.0,) * 4, 1.0, (3, 1), True),
    ((1.0,) * 4, 2.0, (4, 1), False),
])
def test_zero_pivots_are_flagged_at_eigenvalue_probes(off, x, counts, flagged):
    # Probes +-sqrt(x) as chain.empirical_idos gives them.
    off = np.array(off)
    diag = np.zeros(off.size + 1)
    probes = np.array([math.sqrt(x), -math.sqrt(x)])
    got, zeros = _zero_flags(diag, off, probes)
    assert tuple(got) == counts
    assert zeros.tolist() == [flagged, flagged]


@pytest.mark.parametrize("sites", [1, 7, 300])
def test_array_loop_long_matrix_counts_past_a_byte(sites):
    # The array loop tallies negative pivots in bytes and adds them to the
    # counts before 256 sites; a matrix of 700 sites with counts near 700
    # crosses that flush, with blocks of 1, 7 and 255 sites.  So does sweep
    # 2 of verified blocks of 300 sites, whose block 0 always counts there.
    rng = np.random.default_rng(21)
    t = SymTridiag(rng.normal(size=700), rng.uniform(0.1, 1.0, 699))
    probes = np.linspace(-3.5, 3.5, 8)
    want = np.tile(count_below_many(t, probes), 16)
    ev = np.linalg.eigvalsh(t.to_dense())
    assert np.array_equal(want[:8], np.sum(ev[None, :] < probes[:, None], axis=1))
    block = tridiag._ARRAY_BLOCK_ELEMENTS
    try:
        tridiag._ARRAY_BLOCK_ELEMENTS = sites * 128
        assert np.array_equal(tridiag._sturm_counts(t.diag, t.off, np.tile(probes, 16)), want)
        with _verified_blocks(300):
            tridiag._ARRAY_BLOCK_ELEMENTS = sites * 8 * 2  # 8 lanes of 2 blocks
            assert np.array_equal(count_below_many(t, probes), want[:8])
    finally:
        tridiag._ARRAY_BLOCK_ELEMENTS = block


def test_count_below_many_keeps_the_probe_shape():
    rng = np.random.default_rng(5)
    t = SymTridiag(rng.normal(size=30), rng.uniform(0.1, 1.0, 29))
    for shape in ((2, 3), (40, 3)):  # float loop, array loop
        probes = rng.uniform(-3.0, 3.0, shape)
        got = count_below_many(t, probes)
        assert got.shape == shape
        assert np.array_equal(got.ravel(), count_below_many(t, probes.ravel()))


def test_count_refuses_nan_probes_and_counts_infinite_ones():
    t = SymTridiag(np.zeros(5), np.ones(4))
    with pytest.raises(ValueError, match="NaN"):
        count_below(t, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        count_below_many(t, [0.0, math.nan])
    with pytest.raises(ValueError, match="NaN"):
        count_below_many(t, np.full(200, math.nan))  # array-loop size
    assert count_below(t, math.inf) == 5
    assert count_below(t, -math.inf) == 0
    probes = np.tile([-math.inf, 0.0, math.inf], 40)
    assert np.array_equal(count_below_many(t, probes), np.tile([0, 2, 5], 40))


def test_bisection_refuses_ranks_and_brackets_it_cannot_honour():
    t = SymTridiag(np.zeros(5), np.ones(4))
    for ranks in ([0], [6], [3, 1], [2, 2], [], np.array([1.0, 2.0]), np.array([[1, 2]])):
        with pytest.raises(ValueError, match="ranks"):
            eigenvalues(t, ranks=np.asarray(ranks))
    with pytest.raises(ValueError, match="does not hold"):
        eigenvalues(t, bounds=(5.0, 6.0))
    with pytest.raises(ValueError, match="does not hold"):
        eigenvalues(t, ranks=np.array([1, 5]), bounds=(-1.5, 1.5))  # eigenvalues +-sqrt 3 lie outside
    with pytest.raises(ValueError, match="does not hold"):
        eigenvalues_many([t, t], ranks=np.array([3]), bounds=[(-0.5, 0.5), (0.5, 2.5)])
    with pytest.raises(ValueError, match="finite"):
        eigenvalues(t, bounds=(-math.inf, 2.0))
    # A bracket that holds the wanted ranks keeps the values of the
    # default bracket's bisection to within tol.
    got = eigenvalues(t, ranks=np.array([2, 4]), bounds=(-1.5, 1.5)).values
    assert got == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_eigenvalues_small_exact():
    t = SymTridiag(np.zeros(3), np.ones(2))
    got = eigenvalues(t, tol=1e-13).values
    assert got == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-12)

    t2 = SymTridiag(np.array([-1.0, -1.0]), np.array([1.0]))
    got2 = eigenvalues(t2, tol=1e-13).values
    assert got2 == pytest.approx([-2.0, 0.0], abs=1e-12)


def test_eigenvalues_cross_check_with_counts_and_scipy():
    rng = np.random.default_rng(8)
    t = SymTridiag(rng.normal(size=500), rng.uniform(0.1, 2.0, 499))
    spec = eigenvalues(t)
    ref = eigh_tridiagonal(t.diag, t.off, eigvals_only=True)
    assert np.max(np.abs(spec.values - ref)) < 1e-10
    for x in rng.uniform(-4, 4, 20):
        assert count_below(t, float(x)) == int(np.sum(spec.values < x))


def test_eigenvalue_ranks_selection():
    rng = np.random.default_rng(9)
    t = SymTridiag(rng.normal(size=60), rng.uniform(0.3, 1.0, 59))
    full = eigenvalues(t).values
    sel = eigenvalues(t, ranks=np.array([1, 30, 60])).values
    assert sel == pytest.approx([full[0], full[29], full[59]], abs=1e-9)


# ----------------------------------------------------------------------
# property tests of the batched bisection
# ----------------------------------------------------------------------


@st.composite
def _bisection_batches(draw):
    """R equal-size matrices with arguments shared by eigenvalues_many.

    Each row has its own scale over six decades, so Gershgorin widths
    below 1 give rows different iteration counts; a tol far below the
    entries' spacing makes the iteration cap, not the width test, end
    some rows.  Off-diagonals include exact zeros; ranks, bounds and tol
    are drawn or left at their defaults.
    """
    r = draw(st.integers(1, 4))
    n = draw(st.integers(1, 48))
    scale = 10.0 ** draw(hnp.arrays(float, (r, 1), elements=st.floats(-4, 2)))
    if draw(st.booleans()):
        diag = np.zeros((r, n))
    else:
        diag = scale * draw(hnp.arrays(float, (r, n), elements=st.floats(-4, 4)))
    sign = draw(hnp.arrays(float, (r, n - 1), elements=st.sampled_from([0.0, 1.0, 1.0, -1.0])))
    off = scale * sign * draw(hnp.arrays(float, (r, n - 1), elements=st.floats(0.1, 2.0)))
    ts = [SymTridiag(diag[i], off[i]) for i in range(r)]
    ranks = None
    if draw(st.booleans()):
        ranks = np.array(sorted(draw(st.sets(st.integers(1, n), min_size=1))))
    tol = draw(st.none() | st.floats(-17, -6).map(lambda e: 10.0**e))
    bounds = None
    if draw(st.booleans()):
        pad = draw(hnp.arrays(float, (r, 2), elements=st.floats(0, 3)))
        bounds = [(t.gershgorin()[0] - p[0], t.gershgorin()[1] + p[1]) for t, p in zip(ts, pad)]
    return ts, tol, ranks, bounds


def _wide_batch(r, n, tol):
    """r full-spectrum rows of n sites, scales 1e-3 ** i (different iteration counts)."""
    rng = np.random.default_rng(n)
    ts = [SymTridiag(rng.normal(size=n) * 1e-3**i, rng.uniform(0.1, 2.0, n - 1) * 1e-3**i) for i in range(r)]
    return ts, tol, None, None


@settings(max_examples=150, deadline=None)
@given(batch=_bisection_batches())
# Full spectra of 2 or 3 rows of 12 to 48 sites, whose sweeps cross
# _FLOAT_LOOP_LANES as the ranks' brackets come apart, batched and alone;
# and a tol that only the cap can meet.
@example(batch=_wide_batch(2, 48, None))
@example(batch=_wide_batch(3, 40, None))
@example(batch=_wide_batch(2, 24, None))
@example(batch=_wide_batch(3, 12, 1e-17))
def test_batched_bisection_rows_equal_single_calls_bitwise(batch):
    ts, tol, ranks, bounds = batch
    got = eigenvalues_many(ts, tol, ranks, bounds)
    assert len(got) == len(ts)
    for i, t in enumerate(ts):
        one = eigenvalues(t, tol, ranks, None if bounds is None else bounds[i])
        assert np.array_equal(got[i].values.view(np.int64), one.values.view(np.int64))
        assert got[i].tol == one.tol
        ev = np.linalg.eigvalsh(t.to_dense())
        want = ev if ranks is None else ev[ranks - 1]
        slack = got[i].tol + 1e-10 * max(float(np.max(np.abs(ev))), np.max(np.abs(t.off), initial=0.0), 1e-300)
        assert np.all(np.abs(got[i].values - want) <= slack)


def _one_level_bisection(t, tol=None, ranks=None, bounds=None):
    """Plain Sturm bisection of one matrix, one sweep per step: (values, tol)."""
    lo0, hi0 = t.gershgorin() if bounds is None else (float(bounds[0]), float(bounds[1]))
    diameter = max(hi0 - lo0, 1.0)
    row_tol = 1e-12 * diameter if tol is None else tol
    lo, hi = lo0 - 1e-12 * diameter - 1e-300, hi0 + 1e-12 * diameter
    n_iter = max(int(math.ceil(math.log2((hi - lo) / row_tol))) + 2, 8)
    want = np.arange(1, t.n + 1) if ranks is None else np.asarray(ranks)
    lo, hi = np.full(want.size, lo), np.full(want.size, hi)
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        take = tridiag._sturm_counts(t.diag, t.off, mid) >= want
        hi = np.where(take, mid, hi)
        lo = np.where(take, lo, mid)
        if np.max(hi - lo) <= row_tol:
            break
    return 0.5 * (lo + hi), row_tol


@st.composite
def _degenerate_batches(draw):
    """Zero couplings between few diagonal values: repeated eigenvalues, whose ranks share a bracket to the end."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(2, 40))
    diag = draw(hnp.arrays(float, (r, n), elements=st.sampled_from([-1.0, 0.0, 0.5, 2.0])))
    off = draw(hnp.arrays(float, (r, n - 1), elements=st.sampled_from([0.0, 0.0, 0.0, 1.0])))
    ranks = None
    if draw(st.booleans()):
        ranks = np.array(sorted(draw(st.sets(st.integers(1, n), min_size=1))))
    tol = draw(st.none() | st.just(1e-17))
    return [SymTridiag(diag[i], off[i]) for i in range(r)], tol, ranks, None


@settings(max_examples=150, deadline=None)
@given(batch=_bisection_batches() | _degenerate_batches())
@example(batch=_wide_batch(3, 12, 1e-17))
@example(batch=_wide_batch(3, 40, None))
@example(batch=([SymTridiag(np.r_[np.zeros(20), np.ones(20)], np.zeros(39))] * 2, None, None, None))
# An eigenvalue at exactly 2.0, where probes computed as lo + (hi - lo) / 2
# instead of the plain loop's (lo + hi) / 2 change a count and a value.
@example(batch=([SymTridiag(np.array([2.0, 2.0, 2.0, 0.0]), np.array([1.0, 1.0, 0.0]))], None, None, None))
def test_guided_bisection_equals_one_level_loop_bitwise(batch):
    # Steps decided from guard counts around LAPACK estimates, and the
    # midpoints swept between them, must give every value, and the step at
    # which each row stops, of the plain loop; batched and one at a time.
    ts, tol, ranks, bounds = batch
    want = [_one_level_bisection(t, tol, ranks, None if bounds is None else bounds[i]) for i, t in enumerate(ts)]
    got = eigenvalues_many(ts, tol, ranks, bounds)
    alone = [eigenvalues_many([t], tol, ranks, None if bounds is None else [bounds[i]])[0]
             for i, t in enumerate(ts)]
    for (values, row_tol), batched, single in zip(want, got, alone):
        for spectrum in (batched, single):
            assert np.array_equal(spectrum.values.view(np.int64), values.view(np.int64))
            assert spectrum.tol == row_tol


def test_rank_restricted_bisection_takes_few_sweeps(monkeypatch):
    # 40 of 401 ranks: the early sweeps look ahead through the brackets
    # the ranks still share, so there are at most half as many sweeps as
    # the one-step loop makes (one per bisection step, at most n_iter), and
    # every value is the one-step loop's.
    rng = np.random.default_rng(31)
    t = SymTridiag(rng.normal(size=401), rng.uniform(0.2, 1.5, 400))
    ranks = np.sort(rng.choice(np.arange(1, 402), size=40, replace=False))
    kernel, sweeps = tridiag._sturm_counts, []

    def counted(*args):
        sweeps.append(args)
        return kernel(*args)

    monkeypatch.setattr(tridiag, "_sturm_counts", counted)
    values, _ = _one_level_bisection(t, ranks=ranks)
    steps = len(sweeps)
    sweeps.clear()
    got = eigenvalues(t, ranks=ranks)
    assert np.array_equal(got.values.view(np.int64), values.view(np.int64))
    assert len(sweeps) <= steps // 2


@pytest.mark.parametrize("fault", ["nan", "raise", "off"])
def test_guided_bisection_without_a_good_hint_keeps_the_bits(monkeypatch, fault):
    # The second matrix's estimates are NaN, fail to converge or sit 1e3
    # tol above its eigenvalues; it then sweeps every midpoint, or the
    # midpoints between guards on the wrong side, and its batch mixes rows
    # with and without guards.  Every value stays the one-step loop's.
    rng = np.random.default_rng(41)
    ts = [SymTridiag(rng.normal(size=60), rng.uniform(0.2, 1.5, 59)) for _ in range(3)]
    tol, ranks = 1e-10, np.arange(20, 50)
    estimates, calls = tridiag._estimates, []

    def hint(diag, off):
        calls.append(1)
        est = estimates(diag, off)
        if len(calls) % 3 != 2:
            return est
        if fault == "raise":
            raise np.linalg.LinAlgError("dsterf failed to converge")
        return np.full_like(est, np.nan) if fault == "nan" else est + 1e3 * tol

    monkeypatch.setattr(tridiag, "_estimates", hint)
    got = eigenvalues_many(ts, tol, ranks)
    assert len(calls) == 3
    for t, spectrum in zip(ts, got):
        values, _ = _one_level_bisection(t, tol, ranks)
        assert np.array_equal(spectrum.values.view(np.int64), values.view(np.int64))


def test_positive_half_takes_a_third_of_the_one_step_sweeps(monkeypatch):
    # betaens.squared_spectrum's bisection of a 200-pair matrix: the guards
    # decide most steps, so it sweeps at most a third as often as the
    # one-step loop, with the same bits.
    from randchain import betaens

    h = betaens.sample_matrix(betaens.BetaEnsembleSpec(200, c=1.0), seed=7).hermitian_image()
    ranks, bounds = np.arange(h.n - 199, h.n + 1), (0.0, h.gershgorin()[1])
    kernel, sweeps = tridiag._sturm_counts, []

    def counted(*args):
        sweeps.append(args)
        return kernel(*args)

    monkeypatch.setattr(tridiag, "_sturm_counts", counted)
    values, _ = _one_level_bisection(h, ranks=ranks, bounds=bounds)
    steps = len(sweeps)
    sweeps.clear()
    got = eigenvalues(h, ranks=ranks, bounds=bounds)
    assert np.array_equal(got.values.view(np.int64), values.view(np.int64))
    assert len(sweeps) <= steps // 3


def test_batched_bisection_validation():
    t = SymTridiag(np.zeros(3), np.ones(2))
    with pytest.raises(ValueError):
        eigenvalues_many([])
    with pytest.raises(ValueError):
        eigenvalues_many([t, SymTridiag(np.zeros(2), np.ones(1))])
    with pytest.raises(ValueError):
        eigenvalues_many([t, t], bounds=[(-2.0, 2.0)])
    with pytest.raises(ValueError):
        eigenvalues_many([t], tol=0.0)


def test_tracelog_single_pair_closed_form():
    lam = AntisymTridiag(np.array([1.0, 1.0]))
    series, direct = tracelog_check(lam, 0.1, 40)
    assert abs(series - math.log(1.2)) < 1e-10
    assert abs(direct - math.log(1.2)) < 1e-10


def test_tracelog_zero_argument():
    lam = AntisymTridiag(np.array([0.7, 1.3]))
    series, direct = tracelog_check(lam, 0.0, 10)
    assert series == 0.0
    assert direct == pytest.approx(0.0, abs=1e-14)


def test_tracelog_random_nine_by_nine():
    rng = np.random.default_rng(14)
    lam = AntisymTridiag(rng.uniform(0.3, 1.5, 8))
    h = lam.hermitian_image()
    rho = float(np.max(np.abs(eigenvalues(h).values)))
    x = 0.4 / rho**2
    series, direct = tracelog_check(lam, x, 140)
    assert abs(series - direct) < 1e-8


def test_tracelog_radius_error():
    lam = AntisymTridiag(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        tracelog_check(lam, 0.6, 10)  # |x| rho^2 = 1.2 >= 1


def test_antisym_matrix_is_antisymmetric():
    lam = AntisymTridiag(np.array([0.5, 2.0, 1.0]))
    dense = lam.to_dense()
    assert np.array_equal(dense, -dense.T)


def test_spectrum_sorted_validation():
    with pytest.raises(ValueError):
        tridiag.Spectrum(np.array([1.0, 0.0]), tol=1e-12)
