"""Singular value spectra and rank-utilization metrics.

Provides singular values of dense matrices through LAPACK SVD and the
derived diagnostics used to compare adapters: effective rank (the
exponential of the Shannon entropy of the normalized spectrum), cumulative
spectral energy, and the AUC-90 index (components needed for 90% energy).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ShapeError


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def svd_values(m, with_vectors: bool = False):
    """Descending singular values of a dense matrix via LAPACK.

    Non-finite entries raise DomainError; a LAPACK failure to converge
    raises ConvergenceError. With `with_vectors`, returns (u, sv, v) of the
    thin SVD, such that u @ diag(sv) @ v.T reconstructs the input.
    """
    a = _as_matrix(m)
    if not np.all(np.isfinite(a)):
        raise DomainError("svd_values requires finite entries")
    try:
        if not with_vectors:
            return np.linalg.svd(a, compute_uv=False)
        u, sv, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK SVD did not converge: {exc}") from exc
    return u, sv, vt.T


def effective_rank(sv) -> float:
    """exp(-sum p_i ln p_i) with p_i = sigma_i / sum(sigma); 0 ln 0 := 0.

    The all-zero spectrum maps to 0.0, distinct from the rank-1 value 1.0.
    """
    sv = np.asarray(sv, dtype=np.float64).reshape(-1)
    if sv.size and sv.min() < 0.0:
        raise DomainError("singular values must be non-negative")
    total = sv.sum()
    if total == 0.0:
        return 0.0
    p = sv / total
    p = p[p > 0.0]
    return float(np.exp(-(p * np.log(p)).sum()))


def energy_curve(sv, exponent: int = 1) -> np.ndarray:
    """Normalized cumulative sums of sigma^exponent; ends exactly at 1."""
    sv = np.asarray(sv, dtype=np.float64).reshape(-1)
    if exponent not in (1, 2):
        raise DomainError(f"energy exponent must be 1 or 2, got {exponent}")
    if sv.size == 0 or sv.min() < 0.0:
        raise DomainError("spectrum must be non-empty and non-negative")
    if np.any(np.diff(sv) > 0.0):
        raise DomainError("singular values must be sorted descending")
    powered = sv ** exponent
    cum = np.cumsum(powered)
    if cum[-1] == 0.0:
        raise DomainError("energy curve of an all-zero spectrum is undefined")
    return cum / cum[-1]


def auc90(sv, exponent: int = 1) -> int:
    """Smallest k (1-based) whose cumulative energy share reaches 0.9."""
    curve = energy_curve(sv, exponent)
    return int(np.argmax(curve >= 0.9)) + 1


def delta_w_linear(a, b, scale: float):
    """Materialize the input-independent update scale * B @ A of a linear
    adapter with up-projection A (r x k) and down-projection B (d x r)."""
    a_m, b_m = _as_matrix(a), _as_matrix(b)
    if a_m.shape[0] != b_m.shape[1]:
        raise ShapeError(
            f"expected A (r x k) and B (d x r), got {a_m.shape} and {b_m.shape}")
    return scale * (b_m @ a_m)


@dataclass
class SpectralReport:
    """Spectrum of one analyzed matrix plus its derived metrics.

    For an all-zero matrix the effective rank is 0, auc90_index is 0, and
    the energy curve is empty (the normalized distribution is undefined).
    """

    source_label: str
    singular_values: list[float]
    effective_rank: float
    auc90_index: int
    energy_curve: list[float]

    @classmethod
    def of(cls, sv, source_label: str) -> "SpectralReport":
        """The report of the descending singular values `sv`: the one home
        of the all-zero convention above."""
        sv = np.asarray(sv, dtype=np.float64)
        if sv.sum() == 0.0:
            return cls(source_label, sv.tolist(), 0.0, 0, [])
        return cls(source_label, sv.tolist(), effective_rank(sv), auc90(sv),
                   energy_curve(sv).tolist())

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def activation_spectrum(h, source_label: str = "H") -> SpectralReport:
    """Spectral report over the rows-by-features activation matrix `h`."""
    mat = _as_matrix(h)
    if mat.shape[0] < mat.shape[1]:
        warnings.warn(
            f"activation matrix has fewer samples ({mat.shape[0]}) than "
            f"dimensions ({mat.shape[1]}); the spectrum may be sample-limited",
            stacklevel=2)
    return SpectralReport.of(svd_values(mat), source_label)
