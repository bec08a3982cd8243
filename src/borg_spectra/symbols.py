"""Periodic operator descriptions and their matrix-valued symbols.

Three families of self-adjoint bi-infinite operators are supported, all of
one shape: a real tridiagonal interior of p - 1 bonds per period, and a
corner g(theta) = sum_k a_k e^{ik theta} at (1,p), its conjugate at (p,1).

* discrete Schrodinger: diagonal v_1..v_p, interior bonds 1, corner pair (1, 1);
* Jacobi: diagonal v_1..v_p, interior bonds a_1..a_{p-1} > 0, corner pair (1, a_p);
* general block Laurent: diagonal v_1..v_p (ascending), interior bonds 1,
  corner pairs (k, a_k) from a finite coefficient list.

`_bonds` gives the interior bonds and the corner pairs; the symbol here and
the finite sections of `oracle` are both assembled from them, so only it
tells the families apart.  For p <= 2 the corner lands on entries the
interior already occupies; colliding contributions are summed, which is
exactly what the bi-infinite matrix produces (p = 1 gives the scalar symbol
v_1 + 2 Re g(theta), v_1 + 2 cos theta for the Schrodinger family).

The symbol is f(theta) for theta on (-pi, pi]; `symbol_stack` refuses any
other angle.  The shift index k of the proofs enters only the
theta-independent blocks J_k of `interlacing_submatrix`.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import BorgSpectraError, InvalidParameterError, InvalidSpecError


class OperatorKind(Enum):
    SCHRODINGER = "schrodinger"
    JACOBI = "jacobi"
    LAURENT_GENERAL = "laurent"


@dataclass(frozen=True)
class OperatorSpec:
    """Immutable description of one periodic operator, and the one owner of
    the spec schema: the constructor checks every field.

    `a` holds the p Jacobi off-diagonals (all ones when absent); a
    Schrodinger spec may give it only as all ones, and drops it.  `fourier`
    holds the Laurent corner coefficients as (k, a_k) pairs, and only
    Laurent specs take it.
    """

    kind: OperatorKind
    period: int
    v: tuple[float, ...]
    a: tuple[float, ...] | None = None
    fourier: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, OperatorKind):
            raise InvalidSpecError(f"kind must be an OperatorKind, got {self.kind!r}")
        object.__setattr__(self, "period", _integer(self.period, "period", 1, InvalidSpecError))
        object.__setattr__(self, "v", _reals(self.v, "v", self.period))
        laurent = self.kind is OperatorKind.LAURENT_GENERAL
        if (self.fourier is not None) != laurent:
            raise InvalidSpecError("laurent specs need a fourier list, and only they take one")

        if laurent:
            if self.a is not None:
                raise InvalidSpecError("laurent specs carry fourier pairs, not `a`")
            if not isinstance(self.fourier, (list, tuple)):
                raise InvalidSpecError("'fourier' must be a list of (k, a_k) pairs")
            pairs = []
            for item in self.fourier:
                _, coeff = _reals(item, "fourier pair", 2)  # the index too must fit a float
                pairs.append((_integer(item[0], "fourier index", None, InvalidSpecError), coeff))
            object.__setattr__(self, "fourier", tuple(pairs))
            # ascending potential is a standing hypothesis for this family
            if any(self.v[i] > self.v[i + 1] for i in range(self.period - 1)):
                raise InvalidSpecError(
                    "laurent specs require the potential sorted ascending"
                )
        elif self.kind is OperatorKind.JACOBI:
            a = _reals((1.0,) * self.period if self.a is None else self.a, "a", self.period)
            if not all(x > 0.0 for x in a):
                raise InvalidSpecError("Jacobi off-diagonals a_j must be positive")
            object.__setattr__(self, "a", a)
        elif self.a is not None:
            if any(x != 1.0 for x in _reals(self.a, "a", self.period)):
                raise InvalidSpecError(
                    "Schrodinger specs have implicit off-diagonals 1; "
                    "use kind=jacobi for general weights"
                )
            object.__setattr__(self, "a", None)
        # Every width the pipeline forms is at most 2 (||f|| + delta), and the
        # padding delta is at most L pi / 2 + 1e-10 max(1, ||f||): nothing can overflow.
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
        """Infinity-norm bound on ||f(theta)||, uniform in theta:
        max|v| + 2 max a, plus 2 sum_k |a_k| of the corner for Laurent specs."""
        a_max = max(self.a) if self.kind is OperatorKind.JACOBI else 1.0
        bound = max(map(abs, self.v)) + 2.0 * a_max
        if self.kind is OperatorKind.LAURENT_GENERAL:
            bound += 2.0 * sum(abs(c) for _, c in self.fourier)
        return bound

    # -- (de)serialization ---------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "OperatorSpec":
        """Spec from a JSON object holding `kind`, `period` and `v`, and
        maybe `a` and `fourier` (a null field counts as absent).  Only the
        object's keys are checked here; every field is checked by the
        constructor."""
        if not isinstance(data, dict):
            raise InvalidSpecError(f"operator spec must be an object, got {type(data).__name__}")
        for key in ("kind", "period", "v"):
            if key not in data:
                raise InvalidSpecError(f"operator spec needs a '{key}' field")
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise InvalidSpecError(f"unknown operator spec field {key!r}")
        try:
            kind = OperatorKind(data["kind"])
        except ValueError:
            raise InvalidSpecError(f"unknown operator kind {data['kind']!r}") from None
        return cls(**{**data, "kind": kind})

    @classmethod
    def from_json(cls, text: str) -> "OperatorSpec":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and integers past Python's
            # digit limit; RecursionError, nesting past the stack
            raise InvalidSpecError(f"operator spec is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind.value, "period": self.period, "v": list(self.v)}
        if self.kind is OperatorKind.JACOBI:
            out["a"] = list(self.a)
        if self.kind is OperatorKind.LAURENT_GENERAL:
            out["fourier"] = [[k, c] for k, c in self.fourier]
        return out


def _reals(raw, name: str, length: int) -> tuple[float, ...]:
    """A spec list of `length` real numbers as finite floats; InvalidSpecError
    if it is not a list or tuple of that length, or `_real` refuses an entry."""
    if not isinstance(raw, (list, tuple)):
        raise InvalidSpecError(f"'{name}' must be a list, got {type(raw).__name__}")
    if len(raw) != length:
        raise InvalidSpecError(f"'{name}' must hold {length} numbers, got {len(raw)}")
    return tuple(_real(x, f"'{name}' entry", InvalidSpecError) for x in raw)


def _real(value, name: str, error: type[BorgSpectraError] = InvalidParameterError) -> float:
    """`value` as a finite Python float (numpy reals and ints included, bools
    not); `error` if it is no real number or not finite as a float."""
    if type(value) is float and math.isfinite(value):
        return value  # the common case, before the (much slower) abstract class
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise error(f"{name} must be a real number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {_shown(value)}")
    return number


def _real_array(values, name: str) -> np.ndarray:
    """`values`, a real number or a list, tuple or ndarray of them, as a
    float64 array, under `_real`'s rule for every entry.  A float ndarray
    passes after one dtype check and one `isfinite` pass, whose first
    failure `_real` words; anything else goes through `_real` entry by
    entry, a 0-d array as its one number."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            values = values.astype(float, copy=False)
            if not np.isfinite(values).all():
                _real(values[~np.isfinite(values)][0].item(), name)  # raises
            return values
        if values.ndim == 0:
            values = values.item()
    if isinstance(values, (list, tuple, np.ndarray)):
        return np.array([_real(x, name) for x in values], dtype=float)
    return np.array(_real(values, name))


def _integer(
    value,
    name: str,
    minimum: int | None,
    error: type[BorgSpectraError] = InvalidParameterError,
) -> int:
    """`value` as a Python int (numpy integers included, bools not); `error`
    if it is no integer or is below `minimum` (None: no minimum)."""
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if minimum is None or number >= minimum:
                return number
    at_least = "" if minimum is None else f" >= {minimum}"
    raise error(f"{name} must be an integer{at_least}, got {_shown(value)}")


def _shown(value) -> str:
    """`repr(value)` for a refusal message, or the size of an int past
    Python's digit limit, whose `repr` raises ValueError."""
    try:
        return repr(value)
    except ValueError:
        return f"<{'negative ' * (value < 0)}int of {value.bit_length()} bits>"


def _corner(spec: OperatorSpec) -> tuple[tuple[int, float], ...]:
    """The corner pairs (k, a_k) of f: the one pair (1, a_p) for the
    tridiagonal families, the spec's Fourier list for the Laurent one."""
    if spec.kind is OperatorKind.LAURENT_GENERAL:
        return spec.fourier
    return ((1, spec.a[-1] if spec.kind is OperatorKind.JACOBI else 1.0),)


def _bonds(spec: OperatorSpec) -> tuple[np.ndarray, tuple[tuple[int, float], ...]]:
    """The p - 1 interior weights of f and its corner pairs (k, a_k): the
    only place the kind enters the assembly of a symbol or a finite section."""
    return spec.offdiagonals()[:-1], _corner(spec)


def symbol_stack(spec: OperatorSpec, thetas: Sequence[float]) -> np.ndarray:
    """Hermitian symbol matrices f(theta) for a one-dimensional theta grid
    on (-pi, pi], shape (N, p, p), read by `_real_array` as points are by
    `points_distance`: NaN and inf are refused in `_real`'s words, a finite
    angle off (-pi, pi] by the range check.

    Hermiticity is exact by construction: both triangles are written in
    the result itself, the real interior weights on both off-diagonals, the
    corner g(theta) = sum_k a_k e^{ik theta} added at (1, p) and conj(g) at
    (p, 1), then the real diagonal added.  Entries that collide for p <= 2
    are summed in that order (p = 1 gets v_1 + 2 Re g), so the result
    equals m + m^H bit for bit, m holding the upper triangle and g.
    Beside the result only (N,) vectors are allocated: g and one buffer in
    which each term a_k e^{ik theta} is built.
    """
    p = spec.period
    th = _real_array(thetas, "theta")
    if th.ndim != 1:
        raise InvalidParameterError(f"theta must be one-dimensional, got shape {th.shape}")
    outside = (th <= -math.pi) | (th > math.pi)
    if outside.any():
        raise InvalidParameterError(
            f"theta must lie in (-pi, pi], got {th[outside][0].item()!r}"
        )
    interior, pairs = _bonds(spec)
    corner = np.zeros(len(th), dtype=complex)
    term = np.empty_like(corner)  # each a_k e^{ik theta}, built in place
    for k, coeff in pairs:
        np.exp(np.multiply(1j * k, th, out=term), out=term)
        corner += np.multiply(coeff, term, out=term)
    del term  # freed before the stack is allocated

    m = np.zeros((len(th), p, p), dtype=complex)
    flat = m.reshape(len(th), p * p)  # a view: diagonals are strided slices of it
    flat[:, 1 :: p + 1] = interior
    flat[:, p :: p + 1] = interior
    m[:, 0, p - 1] += corner
    m[:, p - 1, 0] += np.conjugate(corner, out=corner)
    flat[:, :: p + 1] += spec.v  # fancy-index += would copy
    return m


def interlacing_submatrix(spec: OperatorSpec, shift: int = 0) -> np.ndarray:
    """The theta-independent block J_k of the shifted symbol f_k, k = shift.

    f_k rotates the coefficient sequences by k, and its corner entries sit
    at (1,p) and (p,1), so its leading (p-1) x (p-1) block is the real
    tridiagonal matrix with diagonal v_{k+1}..v_{k+p-1} and off-diagonals
    a_{k+1}..a_{k+p-2}.  Laurent specs admit only k = 0.
    """
    p = spec.period
    if p < 2:
        raise InvalidSpecError("interlacing submatrix needs period >= 2")
    shift = _integer(shift, "shift", 0)
    if shift >= p:
        raise InvalidParameterError(f"shift {shift} outside [0, {p - 1}] for period {p}")
    if spec.kind is OperatorKind.LAURENT_GENERAL and shift != 0:
        raise InvalidParameterError("laurent specs admit no shifted symbols; use shift=0")
    sites = (shift + np.arange(p - 1)) % p
    off = spec.offdiagonals()[sites[:-1]]
    return np.diag(np.asarray(spec.v)[sites]) + np.diag(off, 1) + np.diag(off, -1)


def lipschitz_bound(spec: OperatorSpec) -> float:
    """Upper bound on |d lambda_j / d theta| for every band function.

    Only the corner entries move with theta: for p >= 2, f(theta) - f(phi)
    is the (1,p)/(p,1) pair g(theta) - g(phi) and its conjugate, of norm
    |g(theta) - g(phi)| <= sum_k |k a_k| |theta - phi| (Weyl's bound); for
    the tridiagonal families that sum is a_p.  For p = 1 the pair
    collides on the one entry 2 Re g, doubling the bound.
    """
    bound = sum((abs(k) * abs(c) for k, c in _corner(spec)), 0.0)
    return bound if spec.period >= 2 else 2.0 * bound
