"""Tests for the finite-truncation oracle.

The independent checks here are analytic: Dirichlet sections of the free
operator have the closed-form eigenvalues 2 cos(k pi / (m+1)), constant
potentials shift them rigidly, and the periodic-wrap variant must agree
exactly with the symbol eigenvalues on the n-point theta grid (a circulant
diagonalization identity, not a numerical approximation).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borg_spectra import (
    InvalidParameterError,
    OperatorKind,
    compute_spectrum,
    eigvalsh_stack,
    hermitian_eigenvalues,
    symbol,
    symbol_stack,
    truncate,
    truncation_compare,
)
from borg_spectra.oracle import SIZE_LIMIT

from conftest import (
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
    """Union of symbol eigenvalues over theta = 2 pi m / blocks, sorted."""
    thetas = 2.0 * np.pi * np.arange(blocks) / blocks
    return np.sort(eigvalsh_stack(symbol_stack(spec, 0, thetas)).ravel())


class TestTruncate:
    def test_free_laplacian_three_sites(self):
        trunc = truncate(schrodinger([0.0]), 3)
        expected = np.array([-math.sqrt(2.0), 0.0, math.sqrt(2.0)])
        values = hermitian_eigenvalues(trunc.entries).values
        assert np.allclose(values, expected, atol=1e-12)

    def test_free_laplacian_closed_form(self):
        for blocks in (1, 2, 5, 17):
            trunc = truncate(schrodinger([0.0]), blocks)
            values = hermitian_eigenvalues(trunc.entries).values
            assert np.allclose(values, dirichlet_free_eigenvalues(blocks), atol=1e-12)

    def test_constant_potential_is_a_shift(self):
        c = -1.75
        base = hermitian_eigenvalues(truncate(schrodinger([0.0]), 9).entries).values
        shifted = hermitian_eigenvalues(truncate(schrodinger([c]), 9).entries).values
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
        blocks = SIZE_LIMIT // 5 + 1
        with pytest.raises(InvalidParameterError):
            truncate(schrodinger([1.0, 1.1, 1.2, 1.3, 1.4]), blocks)

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
                truncate(spec, blocks, periodic=True).entries
            ).values
            assert np.allclose(values, wrapped_grid_eigenvalues(spec, blocks), atol=1e-10)

    def test_jacobi(self):
        spec = jacobi([0.3, -0.2, 0.1], [0.7, 1.4, 2.1])
        for blocks in (2, 5):
            values = hermitian_eigenvalues(
                truncate(spec, blocks, periodic=True).entries
            ).values
            assert np.allclose(values, wrapped_grid_eigenvalues(spec, blocks), atol=1e-10)

    def test_laurent_two_fourier_terms(self):
        spec = laurent([-0.5, 0.0, 0.25], [(1, 0.4), (2, 0.3)])
        for blocks in (5, 8):
            values = hermitian_eigenvalues(
                truncate(spec, blocks, periodic=True).entries
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
        assert np.array_equal(entries, symbol(spec, 0, 0.0).real)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_random_specs(self, seed, blocks):
        spec = random_spec(np.random.default_rng(seed), p_max=4)
        values = hermitian_eigenvalues(
            truncate(spec, blocks, periodic=True).entries
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


class TestCrossSizeInterlacing:
    """A size-m section is a principal submatrix of the size-(m+d) section,
    so lam_j(big) <= lam_j(small) <= lam_(j+d)(big)."""

    @staticmethod
    def assert_interlaced(spec, small_blocks, big_blocks):
        p = spec.period
        small = hermitian_eigenvalues(truncate(spec, small_blocks).entries).values
        big = hermitian_eigenvalues(truncate(spec, big_blocks).entries).values
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

    def test_matches_direct_computation(self):
        spec = jacobi([0.1, -0.4], [1.2, 0.8])
        comparison = truncation_compare(spec, [5], grid_size=512)
        row = comparison.rows[0]
        direct = hermitian_eigenvalues(truncate(spec, 5).entries).values
        assert np.allclose(row.eigenvalues, direct, atol=0.0)
        assert comparison.spectrum.intervals == compute_spectrum(spec, 512).intervals
