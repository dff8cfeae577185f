"""Tests for the bracket ladder and the span certificate.

Linear drift b = A x gives closed-form brackets: B_1 = sigma,
B_{j+1} = [b, B_j] = -A B_j, so B_2 = -A sigma and B_3 = A^2 sigma.  For
the canonical degenerate pair A = [[0,1],[0,0]], sigma = (0,1)^T the
cumulative Gram at depth 2 is the identity, hence kappa_1 = 1 exactly.
"""

import numpy as np
import pytest

from switchsde import (
    NumericError,
    bracket_with_drift,
    build_brackets,
    ball_points,
    estimate_kappa1,
    make_kalman,
    make_linear,
    make_sin_bounded,
    make_two_regime_linear,
    make_zero_drift,
)
from switchsde.diagnostics import kappa1_verdict
from switchsde.hormander import _radical_inverse

A_KALMAN = np.array([[0.0, 1.0], [0.0, 0.0]])


def test_bracket_of_constant_field_is_minus_jacobian_action():
    A = np.array([[0.3, -1.2], [0.7, 0.1]])
    model = make_linear(A, sigma=[[1.0], [0.0]])
    v = np.array([0.5, -0.25])
    out = bracket_with_drift(model, lambda y: v[:, None], np.zeros(2), 1)
    np.testing.assert_allclose(out, (-A @ v)[:, None], atol=1e-9)


@pytest.mark.parametrize("mode", ["analytic", "fd"])
def test_linear_brackets_closed_form(mode):
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    sigma = np.array([[0.0], [1.0]])
    model = make_linear(A, sigma=sigma)
    bs = build_brackets(model, np.array([0.4, -0.1]), 1, depth=3, mode=mode)
    tol = 1e-12 if mode == "analytic" else 1e-6
    np.testing.assert_allclose(bs.fields[0], sigma, atol=tol)
    np.testing.assert_allclose(bs.fields[1], -A @ sigma, atol=tol)
    np.testing.assert_allclose(bs.fields[2], A @ A @ sigma, atol=tol)


def test_analytic_and_fd_agree_on_smooth_drift():
    model = make_sin_bounded(n=2, d=1, sigma=[[0.0], [1.0]], amp=(0.8, 0.5), freq=(1.0, 2.0))
    x = np.array([0.3, -0.9])
    for a in (1, 2):
        ana = build_brackets(model, x, a, depth=3, mode="analytic")
        fd = build_brackets(model, x, a, depth=3, mode="fd")
        for b_ana, b_fd in zip(ana.fields, fd.fields):
            np.testing.assert_allclose(b_ana, b_fd, atol=1e-6)


def test_kalman_certificate_exact():
    model = make_kalman()
    bs = build_brackets(model, model.x0, 1, depth=2)
    # Gram = sigma sigma^T + (A sigma)(A sigma)^T = I
    np.testing.assert_allclose(bs.gram(), np.eye(2), atol=1e-14)
    np.testing.assert_allclose(bs.depth_profile(), [0.0, 1.0], atol=1e-14)
    est = estimate_kappa1(model, depth=2, radius=1.0, n_samples=32)
    assert est.kappa1 == pytest.approx(1.0, abs=1e-12)
    assert kappa1_verdict(est.kappa1, 1e-8).holds
    assert est.cross_check_min >= est.kappa1 - 1e-9


def test_degenerate_zero_drift_fails_with_witness():
    model = make_zero_drift(n=2, d=1, sigma=[[0.0], [1.0]])
    est = estimate_kappa1(model, depth=3, radius=1.0, n_samples=16)
    assert est.kappa1 <= 1e-10
    assert not kappa1_verdict(est.kappa1, 1e-8).holds
    # noise never reaches the first coordinate; the dead direction is e_1
    np.testing.assert_allclose(np.abs(est.witness_direction), [1.0, 0.0], atol=1e-12)
    assert est.depth_profile is not None and np.all(est.depth_profile <= 1e-10)


def test_depth_profile_is_monotone():
    model = make_two_regime_linear()
    bs = build_brackets(model, np.array([0.2, 0.7]), 2, depth=3)
    prof = bs.depth_profile()
    assert prof.size == 3
    assert np.all(np.diff(prof) >= -1e-15)
    assert bs.min_eig(1) == pytest.approx(prof[0])


def test_per_regime_minima_and_quadratic_form():
    model = make_two_regime_linear()
    est = estimate_kappa1(model, depth=2, n_samples=8)
    assert set(est.per_regime) == {1, 2}
    assert min(est.per_regime.values()) == pytest.approx(est.kappa1)
    bs = build_brackets(model, est.witness_x, est.witness_regime, 2)
    v = est.witness_direction
    assert v @ bs.gram() @ v == pytest.approx(est.kappa1, rel=1e-9, abs=1e-12)


def test_ball_points_stay_inside_and_replay():
    center = np.array([1.0, -2.0, 0.5])
    pts = ball_points(center, 0.7, 40, seed=3)
    assert pts.shape == (41, 3)
    np.testing.assert_allclose(pts[0], center)
    assert np.all(np.linalg.norm(pts - center, axis=1) <= 0.7 + 1e-12)
    again = ball_points(center, 0.7, 40, seed=3)
    assert np.array_equal(pts, again)
    assert not np.array_equal(pts, ball_points(center, 0.7, 40, seed=4))


def test_radical_inverse_mirrors_the_digits():
    # Halton's coordinates before the shift: k = 1, 2, 3, ... in base 2 and base 3
    k = np.arange(1, 9)
    assert _radical_inverse(k, 2).tolist() == [1 / 2, 1 / 4, 3 / 4, 1 / 8, 5 / 8, 3 / 8, 7 / 8, 1 / 16]
    assert _radical_inverse(k, 3).tolist() == [1 / 3, 2 / 3, 1 / 9, 4 / 9, 7 / 9, 2 / 9, 5 / 9, 8 / 9]
    assert _radical_inverse(np.array([0, 25]), 5).tolist() == [0.0, 1 / 125]


def test_estimate_is_deterministic():
    model = make_two_regime_linear()
    a = estimate_kappa1(model, depth=2, n_samples=16, seed=11)
    b = estimate_kappa1(model, depth=2, n_samples=16, seed=11)
    assert a.kappa1 == b.kappa1
    assert np.array_equal(a.witness_x, b.witness_x)


def test_bracket_argument_validation():
    model = make_kalman()
    with pytest.raises(ValueError):
        build_brackets(model, model.x0, 1, depth=0)
    with pytest.raises(ValueError):
        build_brackets(model, model.x0, 3, depth=2)
    with pytest.raises(ValueError):
        build_brackets(model, np.zeros(3), 1, depth=2)
    with pytest.raises(ValueError):
        build_brackets(model, model.x0, 1, depth=2, mode="symbolic")
