"""Periodic operator descriptions and their matrix-valued symbols.

Three families of self-adjoint bi-infinite operators are supported, all
with period-p structure and all sharing one p x p Hermitian symbol shape:
a real tridiagonal interior plus a complex corner pair at (1,p) / (p,1).

* discrete Schrodinger: diagonal v_1..v_p, off-diagonals 1, corner e^{i theta};
* Jacobi: diagonal v_1..v_p, off-diagonals a_1..a_{p-1} > 0, corner a_p e^{i theta};
* general block Laurent: diagonal v_1..v_p (ascending), off-diagonals 1,
  corner g(theta) = sum_k a_k e^{ik theta} over a finite coefficient list.

For p <= 2 the corner lands on entries already occupied by the tridiagonal
part; colliding contributions are summed, which is exactly what the
bi-infinite matrix representation produces (p = 1 gives the scalar symbol
v_1 + 2 cos theta for the Schrodinger family).

Shifted symbols f_k rotate the coefficient sequences by k; all of them
have the same eigenvalues at fixed theta, and downstream code is free to
pick whichever shift is convenient.  theta lives on (-pi, pi] and inputs
are wrapped onto that interval.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, InvalidSpecError

TWO_PI = 2.0 * math.pi


class OperatorKind(Enum):
    SCHRODINGER = "schrodinger"
    JACOBI = "jacobi"
    LAURENT_GENERAL = "laurent"


def wrap_theta(theta: float) -> float:
    """Map any real angle onto the fundamental domain (-pi, pi]."""
    if not math.isfinite(theta):
        raise InvalidParameterError(f"theta must be finite, got {theta!r}")
    w = math.remainder(theta, TWO_PI)
    if w <= -math.pi:  # remainder may return the left endpoint
        w += TWO_PI
    return w


@dataclass(frozen=True)
class OperatorSpec:
    """Immutable description of one periodic operator.

    Fields `a` (Jacobi off-diagonals) and `fourier` (Laurent corner
    coefficients, as (k, a_k) pairs) are only meaningful for their kinds;
    a Jacobi spec without `a` defaults to all ones.
    """

    kind: OperatorKind
    period: int
    v: tuple[float, ...]
    a: tuple[float, ...] | None = None
    fourier: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.period, int) or isinstance(self.period, bool):
            raise InvalidSpecError(f"period must be an integer, got {self.period!r}")
        if self.period < 1:
            raise InvalidSpecError(f"period must be >= 1, got {self.period}")
        object.__setattr__(self, "v", tuple(_spec_float(x, "v") for x in self.v))
        if len(self.v) != self.period:
            raise InvalidSpecError(
                f"period {self.period} does not match len(v) = {len(self.v)}"
            )
        if not all(math.isfinite(x) for x in self.v):
            raise InvalidSpecError("potential entries must be finite")

        if self.kind is OperatorKind.SCHRODINGER:
            if self.a is not None:
                a = tuple(_spec_float(x, "a") for x in self.a)
                if any(x != 1.0 for x in a):
                    raise InvalidSpecError(
                        "Schrodinger specs have implicit off-diagonals 1; "
                        "use kind=jacobi for general weights"
                    )
                object.__setattr__(self, "a", a)
            if self.fourier is not None:
                raise InvalidSpecError("fourier coefficients only apply to laurent specs")
        elif self.kind is OperatorKind.JACOBI:
            a = self.a if self.a is not None else (1.0,) * self.period
            a = tuple(_spec_float(x, "a") for x in a)
            if len(a) != self.period:
                raise InvalidSpecError(
                    f"period {self.period} does not match len(a) = {len(a)}"
                )
            if not all(math.isfinite(x) and x > 0.0 for x in a):
                raise InvalidSpecError("Jacobi off-diagonals a_j must be positive")
            object.__setattr__(self, "a", a)
            if self.fourier is not None:
                raise InvalidSpecError("fourier coefficients only apply to laurent specs")
        elif self.kind is OperatorKind.LAURENT_GENERAL:
            if self.a is not None:
                raise InvalidSpecError("laurent specs carry fourier pairs, not `a`")
            if self.fourier is None:
                raise InvalidSpecError("laurent specs need a fourier coefficient list")
            pairs = []
            for item in self.fourier:
                if not isinstance(item, (list, tuple)) or len(item) != 2:
                    raise InvalidSpecError(f"fourier entries must be (k, a_k) pairs, got {item!r}")
                k, coeff = item
                if not isinstance(k, int) or isinstance(k, bool):
                    raise InvalidSpecError(f"fourier index must be an integer, got {k!r}")
                _spec_float(k, "fourier")  # the index too must fit a float
                coeff = _spec_float(coeff, "fourier")
                if not math.isfinite(coeff):
                    raise InvalidSpecError("fourier coefficients must be finite")
                pairs.append((k, coeff))
            object.__setattr__(self, "fourier", tuple(pairs))
            # ascending potential is a standing hypothesis for this family
            if any(self.v[i] > self.v[i + 1] for i in range(self.period - 1)):
                raise InvalidSpecError(
                    "laurent specs require the potential sorted ascending"
                )
        else:  # pragma: no cover - enum is closed
            raise InvalidSpecError(f"unknown kind {self.kind!r}")
        # Every width the pipeline forms is at most 2 (||f|| + delta), and the
        # padding delta is at most max(1, ||f||) or L pi / 2: nothing can overflow.
        if not math.isfinite(4.0 * (self.norm_bound() + lipschitz_bound(self))):
            raise InvalidSpecError(
                "spec entries too large: the symbol norm or its Lipschitz bound overflows"
            )

    # -- derived quantities -------------------------------------------------

    def offdiagonals(self) -> np.ndarray:
        """Interior off-diagonal weights a_1..a_p (ones unless Jacobi)."""
        if self.kind is OperatorKind.JACOBI:
            return np.asarray(self.a, dtype=float)
        return np.ones(self.period)

    def norm_bound(self) -> float:
        """Infinity-norm bound on ||f(theta)||, uniform in theta and shift:
        max|v| + 2 max a, plus 2 sum_k |a_k| of the corner for Laurent specs."""
        bound = float(np.max(np.abs(self.v))) + 2.0 * float(np.max(self.offdiagonals()))
        if self.kind is OperatorKind.LAURENT_GENERAL:
            bound += 2.0 * float(sum(abs(c) for _, c in self.fourier))
        return bound

    # -- (de)serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "OperatorSpec":
        if not isinstance(data, dict):
            raise InvalidSpecError(f"operator spec must be an object, got {type(data)}")
        try:
            kind = OperatorKind(data["kind"])
        except KeyError:
            raise InvalidSpecError("operator spec needs a 'kind' field") from None
        except ValueError:
            raise InvalidSpecError(f"unknown operator kind {data.get('kind')!r}") from None
        if "period" not in data or "v" not in data:
            raise InvalidSpecError("operator spec needs 'period' and 'v' fields")
        period = data["period"]
        if not isinstance(period, int) or isinstance(period, bool):
            raise InvalidSpecError(f"period must be an integer, got {period!r}")
        v = _number_list(data["v"], "v")
        a = _number_list(data["a"], "a") if data.get("a") is not None else None
        fourier = None
        if kind is OperatorKind.LAURENT_GENERAL:
            raw = data.get("fourier")
            if raw is None:
                raise InvalidSpecError("laurent specs need a 'fourier' field")
            if not isinstance(raw, (list, tuple)) or not all(
                isinstance(pair, (list, tuple))
                and len(pair) == 2
                and _is_integer(pair[0])
                and _is_number(pair[1])
                for pair in raw
            ):
                raise InvalidSpecError(
                    f"'fourier' must be a list of [integer k, number a_k] pairs, got {raw!r}"
                )
            fourier = tuple((int(k), c) for k, c in raw)
        return cls(kind=kind, period=period, v=v, a=a, fourier=fourier)

    @classmethod
    def from_json(cls, text: str) -> "OperatorSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidSpecError(f"operator spec is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind.value, "period": self.period, "v": list(self.v)}
        if self.kind is OperatorKind.JACOBI:
            out["a"] = list(self.a)
        if self.kind is OperatorKind.LAURENT_GENERAL:
            out["fourier"] = [[k, c] for k, c in self.fourier]
        return out


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _number_list(raw, name: str) -> tuple:
    """A spec field that must be a list of numbers, as a tuple; the entries
    are converted, and their size checked, by `OperatorSpec.__post_init__`."""
    if not isinstance(raw, (list, tuple)) or not all(_is_number(x) for x in raw):
        raise InvalidSpecError(f"'{name}' must be a list of numbers, got {raw!r}")
    return tuple(raw)


def _spec_float(x, name: str) -> float:
    """One `v`, `a` or `fourier` entry as a float; InvalidSpecError if it is
    not a real number or does not fit a float."""
    if not _is_number(x):
        raise InvalidSpecError(f"'{name}' entries must be numbers, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise InvalidSpecError(f"'{name}' entries must be finite") from None


def _check_shift(spec: OperatorSpec, shift: int) -> int:
    if not isinstance(shift, int) or isinstance(shift, bool):
        raise InvalidParameterError(f"shift must be an integer, got {shift!r}")
    if not 0 <= shift < spec.period:
        raise InvalidParameterError(
            f"shift {shift} outside [0, {spec.period - 1}] for period {spec.period}"
        )
    if spec.kind is OperatorKind.LAURENT_GENERAL and shift != 0:
        raise InvalidParameterError("laurent specs admit no shifted symbols; use shift=0")
    return shift


def _corner_series(spec: OperatorSpec, thetas: np.ndarray) -> np.ndarray:
    """g(theta) = sum_k a_k e^{ik theta}, vectorized over the grid."""
    out = np.zeros(len(thetas), dtype=complex)
    for k, coeff in spec.fourier:
        out += coeff * np.exp(1j * k * thetas)
    return out


def symbol_stack(spec: OperatorSpec, shift: int, thetas: Sequence[float]) -> np.ndarray:
    """Hermitian symbol matrices for a whole theta grid, shape (N, p, p).

    Hermiticity is exact by construction: the strict upper triangle is
    assembled first (summing any colliding corner contributions) and the
    lower triangle is its conjugate; the real diagonal is added last.
    """
    _check_shift(spec, shift)
    p = spec.period
    th = np.array(thetas, dtype=float)  # a copy: the caller's grid is never wrapped
    outside = ~((th > -math.pi) & (th <= math.pi))  # NaN and inf included
    if outside.any():
        th[outside] = [wrap_theta(t) for t in th[outside].tolist()]
    n = len(th)

    diag = np.asarray(spec.v, dtype=float)[(shift + np.arange(p)) % p]
    if spec.kind is OperatorKind.LAURENT_GENERAL:
        off = np.ones(p - 1)
        corner = _corner_series(spec, th)
    else:
        weights = spec.offdiagonals()
        off = weights[(shift + np.arange(p - 1)) % p]
        corner = weights[(shift + p - 1) % p] * np.exp(1j * th)

    m = np.zeros((n, p, p), dtype=complex)
    if p >= 2:
        idx = np.arange(p - 1)
        m[:, idx, idx + 1] = off
        m[:, 0, p - 1] += corner
        m = m + np.conjugate(np.swapaxes(m, 1, 2))
    else:
        m[:, 0, 0] = corner + np.conjugate(corner)
    m[:, np.arange(p), np.arange(p)] += diag
    return m


def symbol(spec: OperatorSpec, shift: int, theta: float) -> np.ndarray:
    """One symbol matrix f_k(theta), shape (p, p)."""
    return symbol_stack(spec, shift, [theta])[0]


def interlacing_submatrix(spec: OperatorSpec, shift: int = 0) -> np.ndarray:
    """Leading (p-1) x (p-1) principal block J_k of the symbol.

    The corner entries of f_k live at (1,p) and (p,1), so J_k does not
    depend on theta: it is the real tridiagonal matrix with diagonal
    v_{k+1}..v_{k+p-1} and off-diagonals a_{k+1}..a_{k+p-2}.
    """
    _check_shift(spec, shift)
    p = spec.period
    if p < 2:
        raise InvalidSpecError("interlacing submatrix needs period >= 2")
    q = p - 1
    diag = np.asarray(spec.v, dtype=float)[(shift + np.arange(q)) % p]
    off = spec.offdiagonals()[(shift + np.arange(q - 1)) % p]
    m = np.zeros((q, q))
    idx = np.arange(q - 1)
    m[idx, idx + 1] = off
    m[idx + 1, idx] = off
    m[np.arange(q), np.arange(q)] = diag
    return m


def lipschitz_bound(spec: OperatorSpec) -> float:
    """Upper bound on |d lambda_j / d theta| for every band function.

    Only the corner entries move with theta, so a Weyl bound gives
    2 a_p for the tridiagonal families (the factor 2 also covers the
    p = 1 collision case) and 2 sum_k |k a_k| for the Laurent corner.
    """
    if spec.kind is OperatorKind.LAURENT_GENERAL:
        return 2.0 * float(sum(abs(k) * abs(c) for k, c in spec.fourier))
    return 2.0 * float(spec.offdiagonals()[-1])
