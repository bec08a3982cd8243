"""Band spectra, pseudospectra, and gap certificates of periodic discrete
Schrodinger, Jacobi, and block Laurent operators.

The spectrum of a period-p operator is computed from its p x p Hermitian
matrix symbol sampled over the frequency circle; the epsilon-pseudospectrum
of these self-adjoint operators is the epsilon-fattening of the spectrum, so
connectivity questions reduce to interval arithmetic on the real line.  On
top of that sit deviation certificates ("a connected pseudospectrum forces a
near-constant potential" and its converse) on a three-valued connectivity
verdict, finite-truncation cross-validation, and a continued-fraction
approximant sweep for cosine quasi-periodic potentials.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .borg import (
    BorgReport,
    TheoremId,
    best_constant,
    converse_from_spectrum,
    forward_from_spectrum,
)
from .eig import EigenResult, eigvalsh_stack, hermitian_eigenvalues
from .errors import (
    BorgSpectraError,
    HypothesisViolationError,
    InvalidParameterError,
    InvalidSpecError,
)
from .mathieu import (
    ApproximantReport,
    Convergent,
    PremiseReport,
    SweepResult,
    approximant_sweep,
    convergents,
    mathieu_potential,
    tenmartini_premise,
)
from .oracle import TruncatedOperator, TruncationComparison, truncate, truncation_compare
from .spectra import (
    BandTable,
    Connectivity,
    RealSpectrum,
    band_table,
    compute_spectrum,
    connectivity,
    hausdorff_distance,
    merge_intervals,
    points_distance,
    pseudospectrum_intervals,
    spectrum_from_points,
    theta_grid,
)
from .symbols import (
    OperatorKind,
    OperatorSpec,
    interlacing_submatrix,
    lipschitz_bound,
    symbol_stack,
)

__all__ = [
    "__version__",
    "ApproximantReport",
    "BandTable",
    "BorgReport",
    "BorgSpectraError",
    "Connectivity",
    "Convergent",
    "EigenResult",
    "HypothesisViolationError",
    "InvalidParameterError",
    "InvalidSpecError",
    "OperatorKind",
    "OperatorSpec",
    "PremiseReport",
    "RealSpectrum",
    "SweepResult",
    "TheoremId",
    "TruncatedOperator",
    "TruncationComparison",
    "approximant_sweep",
    "band_table",
    "best_constant",
    "compute_spectrum",
    "connectivity",
    "convergents",
    "converse_from_spectrum",
    "eigvalsh_stack",
    "forward_from_spectrum",
    "hausdorff_distance",
    "hermitian_eigenvalues",
    "interlacing_submatrix",
    "lipschitz_bound",
    "mathieu_potential",
    "merge_intervals",
    "points_distance",
    "pseudospectrum_intervals",
    "spectrum_from_points",
    "symbol_stack",
    "tenmartini_premise",
    "theta_grid",
    "truncate",
    "truncation_compare",
]
