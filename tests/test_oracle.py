"""Tests for the finite-truncation oracle.

The independent checks here are analytic: Dirichlet sections of the free
operator have the closed-form eigenvalues 2 cos(k pi / (m+1)), constant
potentials shift them rigidly, and the periodic-wrap variant must agree
exactly with the symbol eigenvalues on the n-point theta grid (a circulant
diagonalization identity, not a numerical approximation).
"""
import math
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from borg_spectra import (
    InvalidParameterError,
    OperatorKind,
    compute_spectrum,
    eigvalsh_stack,
    hermitian_eigenvalues,
    eig,
    oracle,
    symbol_stack,
    truncate,
    truncation_compare,
    spectra,
)

from conftest import (
    LAURENT_24,
    STAIRCASE,
    any_symbol_args,
    assert_rejected_before_allocating,
    jacobi,
    laurent,
    random_spec,
    schrodinger,
)


def dirichlet_free_eigenvalues(m: int) -> np.ndarray:
    """Eigenvalues of the m x m tridiagonal (0 diag, 1 off): ascending."""
    k = np.arange(1, m + 1)
    return np.sort(2.0 * np.cos(k * np.pi / (m + 1)))


def wrapped_grid_eigenvalues(spec, blocks: int) -> np.ndarray:
    """Union of symbol eigenvalues over theta = 2 pi m / blocks, sorted, m
    over the centred range whose angles lie in (-pi, pi]."""
    m = np.arange(-((blocks - 1) // 2), blocks // 2 + 1)
    thetas = 2.0 * np.pi * (m / blocks)  # m / blocks = 1/2 gives pi exactly
    return np.sort(eigvalsh_stack(symbol_stack(spec, thetas)).ravel())


class TestTruncate:
    def test_free_laplacian_three_sites(self):
        trunc = truncate(schrodinger([0.0]), 3)
        expected = np.array([-math.sqrt(2.0), 0.0, math.sqrt(2.0)])
        values = hermitian_eigenvalues(trunc.band).values
        assert np.allclose(values, expected, atol=1e-12)

    def test_free_laplacian_closed_form(self):
        for blocks in (1, 2, 5, 17):
            trunc = truncate(schrodinger([0.0]), blocks)
            values = hermitian_eigenvalues(trunc.band).values
            assert np.allclose(values, dirichlet_free_eigenvalues(blocks), atol=1e-12)

    def test_constant_potential_is_a_shift(self):
        c = -1.75
        base = hermitian_eigenvalues(truncate(schrodinger([0.0]), 9).band).values
        shifted = hermitian_eigenvalues(truncate(schrodinger([c]), 9).band).values
        assert np.allclose(shifted, base + c, atol=1e-12)

    def test_staircase_two_blocks_matrix(self):
        spec = schrodinger([1.0, 1.1, 1.2, 1.3, 1.4])
        trunc = truncate(spec, 2)
        assert trunc.size == 10
        m = trunc.entries
        assert np.allclose(np.diag(m), [1.0, 1.1, 1.2, 1.3, 1.4] * 2)
        assert np.allclose(np.diag(m, 1), np.ones(9))
        assert np.allclose(m, m.T)
        # Dirichlet cutoff: nothing outside the first off-diagonals.
        assert np.count_nonzero(m - np.diag(np.diag(m))
                                - np.diag(np.diag(m, 1), 1)
                                - np.diag(np.diag(m, -1), -1)) == 0

    def test_jacobi_weights_on_offdiagonal(self):
        spec = jacobi([0.0, 0.5], [2.0, 3.0])
        m = truncate(spec, 3).entries
        assert np.allclose(np.diag(m, 1), [2.0, 3.0, 2.0, 3.0, 2.0])

    def test_laurent_band_pattern(self):
        spec = laurent([0.0, 0.0, 0.0], [(1, 0.5)])
        m = truncate(spec, 3, periodic=False).entries
        # Interior ones inside each 3-block.
        for i in (0, 1, 3, 4, 6, 7):
            assert m[i, i + 1] == 1.0
        # The fourier term couples neighbouring blocks at the corner:
        # coefficient at block (r, r-1) entry (1, p), adjoint at (r-1, r)
        # entry (p, 1) - both land on the same matrix positions (3,2)/(2,3).
        assert m[3, 2] == 0.5 and m[2, 3] == 0.5
        assert m[6, 5] == 0.5 and m[5, 6] == 0.5
        # Nothing else leaks across the block cut.
        assert m[2, 4] == 0.0 and m[1, 3] == 0.0
        assert np.allclose(m, m.T)

    def test_invalid_blocks(self):
        with pytest.raises(InvalidParameterError):
            truncate(schrodinger([0.0]), 0)
        with pytest.raises(InvalidParameterError):
            truncate(schrodinger([0.0]), -3)

    def test_size_limit(self):
        blocks = math.isqrt(spectra.BYTE_BUDGET // 32) // 5 + 1
        with pytest.raises(InvalidParameterError):
            truncate(schrodinger([1.0, 1.1, 1.2, 1.3, 1.4]), blocks)

    def test_budget_read_when_checked(self, monkeypatch):
        # a size-n section is budgeted at 32 n^2 bytes
        monkeypatch.setattr(spectra, "BYTE_BUDGET", 32 * 10**2)
        spec = schrodinger([0.0, 1.0])
        assert truncate(spec, 5).size == 10
        with pytest.raises(InvalidParameterError, match="over the"):
            truncate(spec, 6)

    def test_section_over_budget(self):
        spec = schrodinger([0.0])
        assert_rejected_before_allocating(lambda: truncate(spec, 8193))

    @pytest.mark.parametrize("k", [2**62, -(2**62), 10**30])
    def test_huge_fourier_index(self, k):
        # a pair with |k| >= n blocks reaches no row of the Dirichlet section;
        # the wrapped one takes k mod n
        v, n = (0.0, 0.5, 1.0), 5
        spec = laurent(v, ((1, 0.5), (k, 0.25), (-2, 0.125)))
        without = laurent(v, ((1, 0.5), (-2, 0.125)))
        reduced = laurent(v, ((1, 0.5), (k % n, 0.25), (-2, 0.125)))
        assert truncate(spec, n).entries.tobytes() == truncate(without, n).entries.tobytes()
        assert (truncate(spec, n, periodic=True).entries.tobytes()
                == truncate(reduced, n, periodic=True).entries.tobytes())


class TestPeriodicWrap:
    """Wrapped sections are block circulants: eigenvalue sets must equal the
    symbol eigenvalues on theta = 2 pi m / n exactly."""

    def test_schrodinger_staircase(self):
        spec = schrodinger([1.0, 1.1, 1.2, 1.3, 1.4])
        for blocks in (2, 3, 8):
            values = hermitian_eigenvalues(
                truncate(spec, blocks, periodic=True).band
            ).values
            assert np.allclose(values, wrapped_grid_eigenvalues(spec, blocks), atol=1e-10)

    def test_jacobi(self):
        spec = jacobi([0.3, -0.2, 0.1], [0.7, 1.4, 2.1])
        for blocks in (2, 5):
            values = hermitian_eigenvalues(
                truncate(spec, blocks, periodic=True).band
            ).values
            assert np.allclose(values, wrapped_grid_eigenvalues(spec, blocks), atol=1e-10)

    def test_laurent_two_fourier_terms(self):
        spec = laurent([-0.5, 0.0, 0.25], [(1, 0.4), (2, 0.3)])
        for blocks in (5, 8):
            values = hermitian_eigenvalues(
                truncate(spec, blocks, periodic=True).band
            ).values
            assert np.allclose(values, wrapped_grid_eigenvalues(spec, blocks), atol=1e-10)

    @pytest.mark.parametrize(
        "spec, expected",
        [(schrodinger([0.3]), 2.3), (jacobi([0.3], [0.7]), 1.7)],
        ids=["schrodinger", "jacobi"],
    )
    def test_one_site_ring_holds_both_bond_ends(self, spec, expected):
        # the one bond of a one-site ring starts and ends on that site: v + 2a
        entries = truncate(spec, 1, periodic=True).entries
        assert entries.tolist() == [[pytest.approx(expected, abs=1e-15)]]
        assert np.array_equal(entries, symbol_stack(spec, [0.0])[0].real)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_random_specs(self, seed, blocks):
        spec = random_spec(np.random.default_rng(seed), p_max=4)
        values = hermitian_eigenvalues(
            truncate(spec, blocks, periodic=True).band
        ).values
        assert np.allclose(values, wrapped_grid_eigenvalues(spec, blocks), atol=1e-9)


def section_by_definition(spec, blocks: int, periodic: bool) -> np.ndarray:
    """The section written out site by site from the operator's definition.

    Sites i and i + 1 of a tridiagonal chain are joined by a_{i mod p}.  A
    block Laurent operator has ones inside each block and couples the first
    site of block r to the last site of block r - k by a_k.  Dirichlet
    sections drop bonds that leave the window; wrapped ones fold them in.
    """
    p = spec.period
    n = blocks * p
    h = np.zeros((n, n))

    def bond(i, j, w):
        if periodic:
            i, j = i % n, j % n
        elif not (0 <= i < n and 0 <= j < n):
            return
        h[i, j] += w
        h[j, i] += w

    for i in range(n):
        h[i, i] += spec.v[i % p]
    if spec.kind is OperatorKind.LAURENT_GENERAL:
        for i in range(n):
            if (i + 1) % p:
                bond(i, i + 1, 1.0)
        for r in range(blocks):
            for k, c in spec.fourier:
                bond(r * p, (r - k) * p + p - 1, c)
    else:
        a = spec.a if spec.kind is OperatorKind.JACOBI else (1.0,) * p
        for i in range(n):
            bond(i, i + 1, a[i % p])
    return h


@pytest.mark.parametrize("periodic", [False, True], ids=["dirichlet", "wrapped"])
@pytest.mark.parametrize("family", ["schrodinger", "jacobi", "laurent"])
def test_section_matches_definition(family, periodic):
    # dyadic entries of few bits: every sum is exact in any order, so the
    # two constructions must agree bit for bit
    rng = np.random.default_rng(["schrodinger", "jacobi", "laurent"].index(family))

    def dyadic(lo, hi, size):
        return rng.integers(lo, hi, size=size) / 8.0

    for p in range(1, 7):
        for blocks in range(1, 7):
            v = dyadic(-16, 17, p)
            if family == "schrodinger":
                spec = schrodinger(v)
            elif family == "jacobi":
                spec = jacobi(v, dyadic(1, 17, p))
            else:
                terms = int(rng.integers(1, 5))
                fourier = zip(rng.integers(-3, 4, size=terms), dyadic(-8, 9, terms))
                spec = laurent(np.sort(v), fourier)
            expected = section_by_definition(spec, blocks, periodic)
            assert np.array_equal(truncate(spec, blocks, periodic).entries, expected), (
                spec, blocks)


@given(any_symbol_args(), st.integers(1, 6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_section_exactly_symmetric(args, blocks, periodic):
    # general float entries: each bond is written twice, never transposed
    m = truncate(args[0], blocks, periodic).entries
    assert np.max(np.abs(m - m.T)) == 0.0


@st.composite
def section_args(draw) -> tuple:
    """(spec, blocks, periodic): every kind, p = 1..6, blocks = 1..6, both
    closures; Laurent lists may hold zero coefficients and a repeated k
    whose terms cancel."""
    spec, _ = draw(any_symbol_args())
    if spec.kind is OperatorKind.LAURENT_GENERAL:
        coeffs = st.just(0.0) | st.floats(-1.0, 1.0)
        pairs = draw(st.lists(st.tuples(st.integers(-3, 3), coeffs), min_size=1, max_size=4))
        if draw(st.booleans()):
            k, c = pairs[0]
            pairs.append((k, -c))
        spec = laurent(spec.v, pairs)
    return spec, draw(st.integers(1, 6)), draw(st.booleans())


@given(section_args())
@settings(max_examples=200, deadline=None)
def test_section_bandwidth_is_exact(args):
    # the band solver reads kd + 1 diagonals, so kd must be the outermost
    # subdiagonal of the reordered matrix with a nonzero: never too small,
    # and no zero column kept
    trunc = truncate(*args)
    order = trunc.order
    assert np.array_equal(np.sort(order), np.arange(trunc.size))
    band, m = trunc.band, trunc.entries[np.ix_(order, order)]
    kd = band.shape[1] - 1
    assert band.shape == (trunc.size, kd + 1)
    assert kd == 0 or np.any(band[:, kd])
    assert not np.any(np.tril(m, -kd - 1))


def narrowest_kd(p: int, ks) -> int:
    """The bandwidth of a Dirichlet section whose pairs of indices `ks` all
    reach the window, with each block kept contiguous: its last site e
    positions from its first, interior bonds spanning w = 1 when the chain
    runs straight (e = +-(p - 1)) and 2 otherwise, pair k at k p - e."""
    if p == 1:
        return max((abs(k) for k in ks), default=0)
    return min(max([1 if abs(e) == p - 1 else 2, *(abs(k * p - e) for k in ks)])
               for e in range(1 - p, p) if e)


@st.composite
def laurent_sections(draw) -> tuple:
    """(spec, blocks): p = 1..8, distinct k in [-3, 3] with nonzero
    coefficients below 1 in size, and blocks = 1..6.  Pairs k and -k share
    a bond at p = 1, so there a_-k = -a_k is rejected: no pair cancels
    another or the interior bond it meets at p = 2."""
    p = draw(st.integers(1, 8))
    v = draw(st.lists(st.floats(-2.0, 2.0), min_size=p, max_size=p))
    ks = draw(st.sets(st.integers(-3, 3), min_size=1, max_size=4))
    coeffs = st.floats(0.125, 0.875).flatmap(lambda c: st.sampled_from([c, -c]))
    terms = {k: draw(coeffs) for k in sorted(ks)}
    assume(p > 1 or all(terms.get(-k) != -c for k, c in terms.items()))
    return laurent(sorted(v), list(terms.items())), draw(st.integers(1, 6))


@given(laurent_sections())
@settings(max_examples=300, deadline=None)
def test_laurent_section_band_is_narrowest(args):
    spec, blocks = args
    p = spec.period
    trunc = truncate(spec, blocks)
    ks = [k for k, _ in spec.fourier if abs(k) < blocks]
    kd = trunc.band.shape[1] - 1
    assert kd == narrowest_kd(p, ks)
    assert kd <= max([1, *(abs(k * p - p + 1) for k in ks)])  # the natural order's kd
    m = trunc.entries
    assert np.array_equal(m, section_by_definition(spec, blocks, periodic=False))
    values = hermitian_eigenvalues(trunc.band).values
    tol = 1e-12 * max(1.0, float(np.linalg.norm(m, np.inf)))
    assert np.max(np.abs(values - np.linalg.eigvalsh(m))) <= tol


def test_cancelling_pairs_leave_no_band():
    # at p = 1 pairs 1 and -1 share every off-diagonal bond, and
    # a_-1 = -a_1 cancels it: the section is diagonal, so kd = 0
    spec = laurent([0.0], [(-1, 0.5), (0, 0.5), (1, -0.5)])
    trunc = truncate(spec, 2)
    assert trunc.band.shape == (2, 1)
    assert np.array_equal(trunc.entries, section_by_definition(spec, 2, periodic=False))


@pytest.mark.parametrize("spec, blocks, periodic", [
    (STAIRCASE, 16, False), (STAIRCASE, 16, True), (jacobi([0.3, -0.2], [0.7, 1.4]), 5, False),
    (laurent([0.0, 0.5, 1.0], [(1, 0.5), (0, 0.25)]), 4, False),
    (LAURENT_24, 16, True),
], ids=["staircase", "staircase-wrapped", "jacobi", "laurent-optimal", "laurent-24-wrapped"])
def test_natural_order_kept_where_it_is_narrowest(spec, blocks, periodic):
    trunc = truncate(spec, blocks, periodic)
    assert np.array_equal(trunc.order, np.arange(trunc.size))


class TestCrossSizeInterlacing:
    """A size-m section is a principal submatrix of the size-(m+d) section,
    so lam_j(big) <= lam_j(small) <= lam_(j+d)(big)."""

    @staticmethod
    def assert_interlaced(spec, small_blocks, big_blocks):
        p = spec.period
        small = hermitian_eigenvalues(truncate(spec, small_blocks).band).values
        big = hermitian_eigenvalues(truncate(spec, big_blocks).band).values
        d = (big_blocks - small_blocks) * p
        n = small_blocks * p
        assert np.all(big[:n] <= small + 1e-9)
        assert np.all(small <= big[d : d + n] + 1e-9)

    def test_staircase(self):
        spec = schrodinger([1.0, 1.1, 1.2, 1.3, 1.4])
        self.assert_interlaced(spec, 4, 5)
        self.assert_interlaced(spec, 4, 16)
        self.assert_interlaced(spec, 16, 64)

    def test_two_site(self):
        spec = schrodinger([0.0, 1.0])
        self.assert_interlaced(spec, 4, 16)
        self.assert_interlaced(spec, 16, 64)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_specs(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, p_max=4)
        small = int(rng.integers(1, 8))
        self.assert_interlaced(spec, small, small + int(rng.integers(1, 8)))


class TestTruncationCompare:
    def test_free_operator_contained_exactly(self):
        comparison = truncation_compare(schrodinger([0.0]), [4, 16, 64])
        for row in comparison.rows:
            assert row.one_sided == 0.0
            assert np.all(row.distances == 0.0)
            assert np.all(np.abs(row.eigenvalues) <= 2.0)

    def test_row_fields(self):
        spec = schrodinger([0.0, 1.0])
        comparison = truncation_compare(spec, [3, 6])
        assert [r.blocks for r in comparison.rows] == [3, 6]
        assert [r.size for r in comparison.rows] == [6, 12]
        for row in comparison.rows:
            assert row.eigenvalues.shape == (row.size,)
            assert np.all(np.diff(row.eigenvalues) >= 0.0)
            assert row.distances.shape == (row.size,)
            assert np.all(row.distances >= 0.0)
            assert row.one_sided == pytest.approx(float(np.max(row.distances)))
            # Hausdorff dominates the one-sided deviation by definition.
            assert row.hausdorff >= row.one_sided - 1e-12

    def test_two_sided_gap_contribution(self):
        # v=(0,1) has a spectral gap; a small section cannot cover the
        # bands, so d_H strictly exceeds the one-sided distance.
        comparison = truncation_compare(schrodinger([0.0, 1.0]), [2])
        row = comparison.rows[0]
        assert row.hausdorff > row.one_sided

    def test_empty_blocks_rejected(self):
        with pytest.raises(InvalidParameterError):
            truncation_compare(schrodinger([0.0]), [])

    @pytest.mark.parametrize("blocks", [[], np.array([], dtype=int)], ids=["list", "array"])
    def test_empty_request_refused_with_its_message(self, blocks):
        with pytest.raises(InvalidParameterError) as info:
            truncation_compare(schrodinger([0.0]), blocks)
        assert str(info.value) == "need at least one block count"

    def test_integer_array_request(self):
        spec = schrodinger([0.0, 1.0])
        rows = truncation_compare(spec, np.array([4, 16]), grid_size=64).rows
        expected = truncation_compare(spec, [4, 16], grid_size=64).rows
        assert [row.blocks for row in rows] == [4, 16]
        assert all(type(row.blocks) is int for row in rows)
        for row, want in zip(rows, expected):
            assert row.eigenvalues.tobytes() == want.eigenvalues.tobytes()

    def test_lone_number_refused(self):
        with pytest.raises(InvalidParameterError) as info:
            truncation_compare(schrodinger([0.0]), 5)
        assert str(info.value) == "blocks must be a list of block counts, got int"

    def test_lone_section_worded_as_a_request(self):
        # `truncate`'s one section and a one-count request read alike
        spec = schrodinger([0.0, 1.0])
        for call in (lambda: truncate(spec, 9000), lambda: truncation_compare(spec, [9000])):
            with pytest.raises(InvalidParameterError) as info:
                call()
            assert str(info.value).startswith(
                "a request for sections of 9000 blocks at period 2 needs about")

    def test_sections_refused_together_before_any_build(self, monkeypatch):
        # a size-n section is budgeted at 32 n^2 bytes, and the call holds
        # every section until it returns, so the sum of them is budgeted:
        # two 8-site sections fit one by one but not together
        monkeypatch.setattr(spectra, "BYTE_BUDGET", 32 * 10**2)
        built, build = [], oracle.truncate

        def recording_truncate(spec, blocks):
            built.append(blocks)
            return build(spec, blocks)

        monkeypatch.setattr(oracle, "truncate", recording_truncate)
        spec = schrodinger([0.0, 1.0])
        with pytest.raises(InvalidParameterError) as info:
            truncation_compare(spec, [4, 4])
        assert str(info.value).startswith(
            "a request for sections of 4, 4 blocks at period 2 needs about")
        assert not built
        assert [row.size for row in truncation_compare(spec, [3, 3]).rows] == [6, 6]
        assert built == [3, 3]

    def test_matches_direct_computation(self):
        spec = jacobi([0.1, -0.4], [1.2, 0.8])
        comparison = truncation_compare(spec, [5], grid_size=512)
        row = comparison.rows[0]
        direct = hermitian_eigenvalues(truncate(spec, 5).band).values
        assert np.allclose(row.eigenvalues, direct, atol=0.0)
        assert comparison.spectrum.intervals == compute_spectrum(spec, 512).intervals


class TestSectionWorker:
    """`truncation_compare` solves the largest section on one worker thread
    while the symbol spectrum is computed, and the others after it: the rows
    must equal a serial run bit for bit, and no thread may outlive the call."""

    @pytest.mark.parametrize("spec, blocks, grid", [
        (LAURENT_24, (4, 16, 83), 4096),
        (STAIRCASE, (4, 16, 64), 256),
        (jacobi([0.1, -0.4, 0.3], [1.2, 0.8, 1.5]), (3, 7), 1024),
        (LAURENT_24, [16, 4, 16], 1024),
    ], ids=["laurent-24", "staircase", "jacobi", "unsorted-duplicated"])
    def test_rows_match_serial_reference(self, spec, blocks, grid):
        before = threading.active_count()
        comparison = truncation_compare(spec, blocks, grid)
        assert threading.active_count() == before
        spectrum = compute_spectrum(spec, grid)
        assert comparison.spectrum == spectrum
        assert [row.blocks for row in comparison.rows] == list(blocks)
        for n, row in zip(blocks, comparison.rows):
            values = hermitian_eigenvalues(truncate(spec, n).band).values
            assert row.size == len(values) == n * spec.period
            assert row.eigenvalues.tobytes() == values.tobytes()
            dists = spectra.points_distance(values, spectrum)
            assert row.distances.tobytes() == dists.tobytes()
            assert row.one_sided == float(np.max(dists))
            assert row.hausdorff == spectra.hausdorff_distance(
                spectra.spectrum_from_points(values), spectrum)

    def test_sections_built_on_the_caller_before_the_worker(self, monkeypatch):
        # `truncate` sizes, refuses and builds every section on the calling
        # thread before the worker starts; the worker only solves a band
        events, built = [], []
        build, start = oracle.truncate, threading.Thread.start

        def recording_truncate(spec, blocks):
            events.append(("truncate", threading.get_ident()))
            built.append(build(spec, blocks))
            return built[-1]

        def recording_start(thread):
            events.append(("start", threading.get_ident()))
            start(thread)

        monkeypatch.setattr(oracle, "truncate", recording_truncate)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        comparison = truncation_compare(LAURENT_24, [4, 16, 83])
        caller = threading.get_ident()
        assert events == [("truncate", caller)] * 3 + [("start", caller)]
        assert [(row.blocks, row.size) for row in comparison.rows] == [
            (section.size // LAURENT_24.period, len(section.band)) for section in built
        ] == [(4, 96), (16, 384), (83, 1992)]

    def test_band_failure_reaches_the_caller(self, monkeypatch):
        # the 1992-site section takes the band path, whose routine fails
        monkeypatch.setattr(eig, "_band_solver", lambda: lambda *args: 2)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="info = 2"):
            truncation_compare(LAURENT_24, [4, 83])
        assert threading.active_count() == before

    def test_spectrum_failure_joins_the_worker(self, monkeypatch):
        solved = []

        def failing(spec, grid_size):
            raise np.linalg.LinAlgError("spectrum failed")

        def recording(band):
            result = hermitian_eigenvalues(band)
            solved.append(len(result.values))
            return result

        monkeypatch.setattr(oracle, "compute_spectrum", failing)
        monkeypatch.setattr(oracle, "hermitian_eigenvalues", recording)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="spectrum failed"):
            truncation_compare(STAIRCASE, [4, 16])
        assert threading.active_count() == before
        assert solved == [80]  # the worker's section finished; no other was started

    def test_small_section_failure_joins_the_worker(self, monkeypatch):
        # the caller solves the small section after the spectrum; its error
        # surfaces only once the worker's largest section is done
        solved, caller = [], threading.get_ident()

        def failing_small(band):
            if len(band) < 80:
                assert threading.get_ident() == caller
                raise np.linalg.LinAlgError("small section failed")
            result = hermitian_eigenvalues(band)
            solved.append(len(result.values))
            return result

        monkeypatch.setattr(oracle, "hermitian_eigenvalues", failing_small)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="small section failed"):
            truncation_compare(STAIRCASE, [4, 16])
        assert threading.active_count() == before
        assert solved == [80]

    def test_worker_failure_reaches_the_caller_after_the_join(self, monkeypatch):
        # the worker's largest section fails only once the caller has solved
        # its small one, so the error can surface only through the join
        error = np.linalg.LinAlgError("largest section failed")
        caller_done, workers, solved = threading.Event(), [], []

        def failing_largest(band):
            if len(band) == 80:
                workers.append(threading.current_thread())
                assert caller_done.wait(timeout=30)
                raise error
            result = hermitian_eigenvalues(band)
            solved.append(len(result.values))
            caller_done.set()
            return result

        monkeypatch.setattr(oracle, "hermitian_eigenvalues", failing_largest)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError) as excinfo:
            truncation_compare(STAIRCASE, [4, 16])
        assert excinfo.value is error
        assert [w.is_alive() for w in workers] == [False]
        assert threading.active_count() == before
        assert solved == [20]
