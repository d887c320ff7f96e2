import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceralab import spectral
from ceralab.errors import ConvergenceError, DomainError, ShapeError
from ceralab.spectral import (SpectralReport, activation_spectrum, auc90,
                              delta_w_linear, effective_rank, energy_curve,
                              svd_values)
from ceralab.tensor import stream


def gram_singular_values(m: np.ndarray) -> np.ndarray:
    """Independent oracle: sigma = sqrt of eigenvalues of M^T M."""
    gram = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    eig = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(eig, 0.0, None))[::-1]


def test_svd_identity():
    assert np.allclose(svd_values(np.eye(3)), [1.0, 1.0, 1.0], atol=1e-14)


def test_svd_diagonal():
    assert np.allclose(svd_values(np.diag([3.0, 2.0, 1.0])), [3.0, 2.0, 1.0], atol=1e-14)


def test_svd_random_matches_gram_oracle_and_reconstructs():
    rng = stream(101, 0)
    m = rng.normal(size=(8, 5))
    u, sv, v = svd_values(m, with_vectors=True)
    assert np.max(np.abs(sv - gram_singular_values(m))) < 1e-9
    recon = u @ np.diag(sv) @ v.T
    rel = np.linalg.norm(recon - m) / np.linalg.norm(m)
    assert rel < 1e-10


def test_svd_transpose_invariance():
    m = stream(102, 0).normal(size=(7, 4))
    assert np.max(np.abs(svd_values(m) - svd_values(m.T))) < 1e-10


def test_svd_orthogonal_invariance():
    rng = stream(103, 0)
    m = rng.normal(size=(6, 6))
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    assert np.max(np.abs(svd_values(q @ m) - svd_values(m))) < 1e-9


def test_svd_rank_deficient():
    rng = stream(104, 0)
    b = rng.normal(size=(6, 2))
    a = rng.normal(size=(2, 5))
    sv = svd_values(b @ a)
    assert np.sum(sv > 1e-12) == 2
    # the Gram oracle itself is only sqrt(eps)-accurate at zero singular values
    assert np.max(np.abs(sv - gram_singular_values(b @ a))) < 1e-6


def test_svd_zero_matrix():
    sv = svd_values(np.zeros((4, 3)))
    assert np.array_equal(sv, np.zeros(3))


def test_svd_rejects_nonfinite():
    m = np.ones((3, 3))
    m[1, 1] = np.nan
    with pytest.raises(DomainError):
        svd_values(m)


def test_svd_wide_matrix_vectors_reconstruct():
    m = stream(108, 0).normal(size=(4, 9))
    u, sv, v = svd_values(m, with_vectors=True)
    assert u.shape == (4, 4) and sv.shape == (4,) and v.shape == (9, 4)
    assert np.linalg.norm(u @ np.diag(sv) @ v.T - m) / np.linalg.norm(m) < 1e-10
    assert np.allclose(v.T @ v, np.eye(4), atol=1e-12)


def test_svd_lapack_failure_is_convergence_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(spectral.np.linalg, "svd", fail)
    for with_vectors in (False, True):
        with pytest.raises(ConvergenceError):
            svd_values(np.eye(3), with_vectors=with_vectors)


def test_effective_rank_goldens():
    assert effective_rank([1.0, 1.0, 1.0, 1.0]) == pytest.approx(4.0, abs=1e-9)
    assert effective_rank([1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    # p = (2/3, 1/3): exp(-(2/3)ln(2/3) - (1/3)ln(1/3)) = 1.889882
    assert effective_rank([2.0, 1.0]) == pytest.approx(1.889882, abs=1e-5)


def test_effective_rank_zero_spectrum_and_errors():
    assert effective_rank([0.0, 0.0]) == 0.0
    with pytest.raises(DomainError):
        effective_rank([1.0, -0.5])


def test_energy_curve_goldens():
    assert np.allclose(energy_curve([1.0, 1.0, 1.0, 1.0]), [0.25, 0.5, 0.75, 1.0])
    assert np.allclose(energy_curve([3.0, 1.0], exponent=2), [0.9, 1.0])


def test_energy_curve_errors():
    with pytest.raises(DomainError):
        energy_curve([0.0, 0.0])
    with pytest.raises(DomainError):
        energy_curve([1.0, 2.0])  # not descending
    with pytest.raises(DomainError):
        energy_curve([1.0], exponent=3)


def test_auc90_goldens():
    assert auc90([1.0] * 10) == 9
    assert auc90([100.0, 1.0]) == 1
    assert auc90([3.0, 1.0], exponent=2) == 1


def test_auc90_one_hot():
    assert auc90([5.0, 0.0, 0.0, 0.0]) == 1


def test_delta_w_examples():
    rng = stream(105, 0)
    a = rng.normal(size=(3, 6))
    assert np.all(delta_w_linear(a, np.zeros((4, 3)), 1.0) == 0.0)
    dw = delta_w_linear(np.array([[1.0, 0.0]]), np.array([[2.0], [0.0], [0.0]]), 1.0)
    expected = np.zeros((3, 2))
    expected[0, 0] = 2.0
    assert np.array_equal(dw, expected)
    # rank of the product is bounded by r
    b = rng.normal(size=(5, 3))
    sv = svd_values(delta_w_linear(a, b, 2.0 / 3))
    assert np.sum(sv > 1e-12) <= 3


def test_delta_w_shape_error():
    with pytest.raises(ShapeError):
        delta_w_linear(np.ones((3, 6)), np.ones((4, 2)), 1.0)


def test_activation_spectrum_orthonormal_rows():
    rep = activation_spectrum(np.eye(6), source_label="probe")
    assert rep.effective_rank == pytest.approx(6.0, abs=1e-9)
    assert rep.auc90_index == math.ceil(0.9 * 6)


def test_activation_spectrum_rank_one():
    rep = activation_spectrum(np.ones((40, 8)))
    assert rep.effective_rank == pytest.approx(1.0, abs=1e-9)
    assert rep.auc90_index == 1


def test_activation_spectrum_zero_matrix():
    rep = activation_spectrum(np.zeros((10, 4)))
    assert rep.effective_rank == 0.0
    assert rep.auc90_index == 0
    assert rep.energy_curve == []


def test_activation_spectrum_warns_when_sample_limited():
    with pytest.warns(UserWarning, match="sample-limited"):
        activation_spectrum(np.ones((3, 8)))


def test_activation_spectrum_invariants_on_random_input():
    rep = activation_spectrum(stream(106, 0).normal(size=(30, 7)))
    sv = np.array(rep.singular_values)
    assert np.all(np.diff(sv) <= 0.0) and np.all(sv >= 0.0)
    assert 1.0 <= rep.effective_rank <= np.sum(sv > 0.0)
    curve = np.array(rep.energy_curve)
    assert np.all(np.diff(curve) >= -1e-15)
    assert curve[-1] == pytest.approx(1.0, abs=1e-12)
    assert curve[rep.auc90_index - 1] >= 0.9
    assert rep.auc90_index == 1 or curve[rep.auc90_index - 2] < 0.9


def test_spectral_report_json_round_trip():
    rep = activation_spectrum(stream(107, 0).normal(size=(12, 5)), source_label="latent")
    back = SpectralReport(**json.loads(rep.to_json()))
    assert back == rep


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=20),
       st.floats(min_value=1e-6, max_value=1e6))
def test_effective_rank_scale_invariance(values, c):
    sv = np.sort(np.asarray(values))[::-1]
    assert effective_rank(c * sv) == pytest.approx(effective_rank(sv), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=15))
def test_effective_rank_bound(values):
    sv = np.sort(np.asarray(values))[::-1]
    er = effective_rank(sv)
    assert er <= sv.size + 1e-9
    if np.all(sv == sv[0]):
        assert er == pytest.approx(sv.size, rel=1e-12)
    elif np.max(sv) / np.min(sv) > 1.001:
        assert er < sv.size


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=200))
def test_auc90_uniform_spectrum(k):
    expected = -((-9 * k) // 10)  # ceil(0.9 k) in exact integer arithmetic
    assert auc90([1.0] * k) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
def test_svd_matches_oracle_property(seed, rows, cols):
    m = stream(seed, 0).normal(size=(rows, cols))
    tol = 1e-8 * (1.0 + np.linalg.norm(m))
    assert np.max(np.abs(svd_values(m) - gram_singular_values(m))) < tol
