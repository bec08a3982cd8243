"""Independent reference spectra for the benchmark's correctness gate.

Nothing here imports borg_spectra: every matrix is assembled from the
operator definition and handed straight to numpy.

* Schrodinger / Jacobi: the discriminant picture (Teschl, *Jacobi
  Operators*, ch. 7) makes each band function monotone in cos(theta), so
  band j is exactly the range between the j-th eigenvalues of the two real
  symmetric matrices at theta = 0 and theta = pi.
* Laurent: no closed form, so the symbol is sampled on a dense grid that
  is offset from any grid the program uses; every sample must lie inside
  the program's enclosure.
"""
from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps
DENSE_SAMPLES = 1 << 16
CHUNK = 4096  # symbols per eigvalsh call, to keep the complex stack small


def floquet_bands(v, a) -> np.ndarray:
    """Exact bands (p, 2) of the periodic Jacobi operator with diagonal v,
    off-diagonals a (a[-1] is the corner weight)."""
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    p = len(v)
    ends = []
    for sign in (1.0, -1.0):  # theta = 0, theta = pi
        m = np.diag(v)
        for j in range(p - 1):
            m[j, j + 1] += a[j]
            m[j + 1, j] += a[j]
        # the corner pair; for p <= 2 it lands on entries already in use
        m[0, p - 1] += sign * a[-1]
        m[p - 1, 0] += sign * a[-1]
        ends.append(np.linalg.eigvalsh(m))
    ends = np.stack(ends)
    return np.stack([ends.min(axis=0), ends.max(axis=0)], axis=1)


def rounding_tol(v, a) -> float:
    """Backward-error allowance for the reference's own eigensolves; `a`
    holds the off-diagonal (or corner) weights."""
    scale = max(1.0, float(np.max(np.abs(v))) + 2.0 * float(np.max(np.abs(a))))
    return 8.0 * len(v) * EPS * scale


def laurent_samples(v, fourier, samples: int = DENSE_SAMPLES) -> np.ndarray:
    """Eigenvalues (samples, p) of the Laurent symbol at theta offset by
    half a step from every point of any power-of-two grid up to `samples`."""
    v = np.asarray(v, dtype=float)
    p = len(v)
    thetas = -math.pi + 2.0 * math.pi * (np.arange(samples) + 0.5) / samples
    out = np.empty((samples, p))
    for start in range(0, samples, CHUNK):
        th = thetas[start : start + CHUNK]
        corner = np.zeros(len(th), dtype=complex)
        for k, coeff in fourier:
            corner += coeff * np.exp(1j * k * th)
        m = np.zeros((len(th), p, p), dtype=complex)
        m[:, np.arange(p), np.arange(p)] = v
        idx = np.arange(p - 1)
        m[:, idx, idx + 1] = 1.0
        m[:, idx + 1, idx] = 1.0
        m[:, 0, p - 1] += corner
        m[:, p - 1, 0] += np.conj(corner)
        out[start : start + CHUNK] = np.linalg.eigvalsh(m)
    return out


def laurent_lipschitz(fourier) -> float:
    """Weyl bound on |d lambda / d theta|: twice the corner's derivative bound."""
    return 2.0 * sum(abs(k) * abs(c) for k, c in fourier)


def components(bands: np.ndarray, tol: float) -> list[tuple[float, float]]:
    """Union of closed band ranges; gaps of width <= tol are not counted."""
    merged: list[list[float]] = []
    for lo, hi in sorted(map(tuple, np.asarray(bands, dtype=float))):
        if merged and lo <= merged[-1][1] + tol:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def not_covered(bands: np.ndarray, intervals, tol: float) -> int:
    """How many closed ranges (rows lo, hi) no single interval, widened by
    tol, contains."""
    merged = np.asarray(components(np.asarray(intervals, dtype=float) + [-tol, tol], 0.0))
    bands = np.asarray(bands, dtype=float).reshape(-1, 2)
    k = np.searchsorted(merged[:, 0], bands[:, 0], side="right") - 1
    inside = (k >= 0) & (bands[:, 1] <= merged[np.maximum(k, 0), 1])
    return int(np.count_nonzero(~inside))


def edge_slack(intervals, comps) -> float:
    """Largest outward distance from a reported endpoint to the nearest
    reference edge: for each reported interval, its ends against the
    outermost reference components it contains."""
    worst = 0.0
    for lo, hi in intervals:
        inside = [(c_lo, c_hi) for c_lo, c_hi in comps if lo <= c_hi and c_lo <= hi]
        if not inside:
            continue
        worst = max(worst, inside[0][0] - lo, hi - inside[-1][1])
    return worst


def max_gap(bands: np.ndarray, tol: float) -> float:
    """Widest gap between reference components (0 when connected)."""
    comps = components(bands, tol)
    return max((b[0] - a[1] for a, b in zip(comps, comps[1:])), default=0.0)
