import math

import mpmath
import numpy as np
import pytest
from scipy.special import log_ndtr

from nadp import calibration
from nadp.calibration import (
    PrivacyParams,
    _log_phi,
    calibrate_components,
    classic_sigma_formula,
    g,
    solve_u_star,
)
from nadp.mechanisms import check_epsilon

from oracles import g_quadrature, phi_quadrature, solve_u_quadrature

EPS_GRID = [0.1, 0.5, 1.0, 5.0, 10.0, 20.0, 40.0]
DELTA_GRID = [1e-6, 1.0 / 73404, 1e-3, 0.1]


def test_phi_centre_and_known_value():
    assert math.exp(_log_phi(0.0)) == 0.5
    # frozen from adaptive quadrature of the density integral
    assert math.exp(_log_phi(1.96)) == pytest.approx(0.9750021048517795, abs=1e-12)


def test_phi_symmetry():
    rng = np.random.default_rng(0)
    for t in rng.normal(0.0, 3.0, 50):
        total = math.exp(_log_phi(t)) + math.exp(_log_phi(-t))
        assert total == pytest.approx(1.0, abs=1e-14)


def test_phi_against_quadrature():
    for t in np.linspace(-8.0, 8.0, 33):
        assert math.exp(_log_phi(float(t))) == pytest.approx(
            phi_quadrature(float(t)), abs=1e-14
        )


def test_log_phi_matches_scipy_log_ndtr():
    # both sides of each branch point: 0, where the upper tail takes over,
    # and -37, where the asymptotic series does
    ts = np.concatenate([
        np.linspace(-1000.0, 100.0, 110_001),
        [0.0, -0.0, -37.0, np.nextafter(-37.0, 0.0), np.nextafter(-37.0, -np.inf),
         np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0), -36.5, -37.5, -1e6],
    ])
    ref = log_ndtr(ts)
    got = np.array([_log_phi(float(t)) for t in ts])
    shown = np.abs(ref) > 1e-290  # below, the value itself is subnormal or 0
    rel = np.abs(got[shown] - ref[shown]) / np.abs(ref[shown])
    assert rel.max() <= 1e-12
    assert np.all(np.abs(got[~shown]) <= 1e-290)
    assert _log_phi(0.0) == _log_phi(-0.0) == math.log(0.5)


@pytest.mark.parametrize("delta", [1e-12, 1e-10, 1e-8, 1e-5, 1e-3, 0.1, 0.5])
def test_u_star_epsilon_zero_matches_closed_form(delta):
    # at epsilon = 0, g(u) = erf(1/(2 sqrt(2) u)), so u* = 1/(2 sqrt(2) erfinv(delta))
    with mpmath.workdps(40):
        exact = 1 / (2 * mpmath.sqrt(2) * mpmath.erfinv(delta))
        u = solve_u_star(PrivacyParams(epsilon=0.0, delta=delta))
        assert abs(u - exact) / exact <= 1e-10


def _solve_u_star_with_scipy(monkeypatch, eps, delta):
    with monkeypatch.context() as patch:
        patch.setattr(calibration, "_log_phi", lambda t: float(log_ndtr(t)))
        return solve_u_star(PrivacyParams(epsilon=eps, delta=delta))


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0])
def test_u_star_identical_to_scipy_log_ndtr(monkeypatch, eps):
    for delta in [10.0 ** -e for e in range(2, 11)]:
        u = solve_u_star(PrivacyParams(epsilon=eps, delta=delta))
        assert u == _solve_u_star_with_scipy(monkeypatch, eps, delta), delta


def test_u_star_within_one_bisection_step_of_scipy_log_ndtr(monkeypatch):
    # where g(mid) lies within the two log Phi's rounding of delta, the last
    # bisection steps may go different ways; they never differ by more
    for eps in [0.01, 0.02, 0.05, 0.2, 1.0, 3.0]:
        for delta in [10.0 ** (-e / 4) for e in range(8, 41)]:
            params = PrivacyParams(epsilon=eps, delta=delta)
            u = solve_u_star(params)
            ref = _solve_u_star_with_scipy(monkeypatch, eps, delta)
            assert abs(u - ref) <= 2 * calibration._TOL * ref, (eps, delta)


def test_g_limits():
    for eps in (0.0, 0.5, 5.0):
        assert g(1e-9, eps) == pytest.approx(1.0, abs=1e-9)
        # at eps = 0 the tail decay is only ~1/u, hence the huge u
        assert g(1e13, eps) < 1e-12


def test_g_strictly_decreasing():
    rng = np.random.default_rng(1)
    for eps in (0.0, 0.3, 1.0, 10.0):
        # sample within the range where g spans (1e-10, 1) so that strict
        # monotonicity is observable without underflow to exactly 0
        u_hi = solve_u_star(PrivacyParams(epsilon=eps, delta=1e-10))
        us = np.sort(rng.uniform(0.02, 1.0, 30)) * u_hi
        values = [g(float(u), eps) for u in us]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_g_validates_inputs():
    with pytest.raises(ValueError):
        g(0.0, 1.0)
    with pytest.raises(ValueError):
        g(-1.0, 1.0)
    with pytest.raises(ValueError):
        g(1.0, -0.1)


def test_g_two_parametrisations_agree():
    # direct formula in (Delta, sigma) form versus the u = sigma/Delta form
    rng = np.random.default_rng(2)
    for _ in range(100):
        eps = float(rng.uniform(0.0, 5.0))
        delta_sens = float(rng.uniform(0.1, 10.0))
        sigma = float(rng.uniform(0.1, 10.0))
        direct = phi_quadrature(
            delta_sens / (2 * sigma) - eps * sigma / delta_sens
        ) - math.exp(eps) * phi_quadrature(
            -delta_sens / (2 * sigma) - eps * sigma / delta_sens
        )
        assert g(sigma / delta_sens, eps) == pytest.approx(direct, abs=1e-12)


def test_g_against_quadrature_deep_tail():
    # the regime where the naive difference loses all precision
    for eps in (10.0, 20.0, 40.0):
        u = solve_u_star(PrivacyParams(epsilon=eps, delta=1e-6))
        assert g(u, eps) == pytest.approx(g_quadrature(u, eps), abs=1e-12)


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("delta", DELTA_GRID)
def test_u_star_minimality_on_grid(eps, delta):
    params = PrivacyParams(epsilon=eps, delta=delta)
    u = solve_u_star(params)
    assert g(u, eps) <= delta
    assert g(0.999 * u, eps) > delta
    # independent quadrature-based solver agrees
    assert u == pytest.approx(solve_u_quadrature(eps, delta), rel=1e-9)


def test_u_star_minimality_at_solver_tolerance():
    # the stronger minimality contract: even a 10*tol relative shrink of the
    # returned multiplier already violates the condition
    for eps, delta in [(0.5, 1e-4), (5.0, 1e-6), (0.0, 0.1)]:
        params = PrivacyParams(epsilon=eps, delta=delta)
        u = solve_u_star(params)
        assert g(u * (1.0 - 10.0 * calibration._TOL), eps) > delta


def test_u_star_epsilon_zero_supported():
    u = solve_u_star(PrivacyParams(epsilon=0.0, delta=0.1))
    assert g(u, 0.0) <= 0.1
    assert g(0.999 * u, 0.0) > 0.1


def test_u_star_monotone_in_delta():
    # stricter delta needs a larger multiplier, hence more noise
    for eps in (0.1, 1.0, 10.0):
        u_strict = solve_u_star(PrivacyParams(epsilon=eps, delta=1e-6))
        u_loose = solve_u_star(PrivacyParams(epsilon=eps, delta=1e-2))
        assert u_strict > u_loose


def test_u_star_monotone_in_epsilon():
    for delta in (1e-6, 1e-3):
        u_strict = solve_u_star(PrivacyParams(epsilon=0.1, delta=delta))
        u_loose = solve_u_star(PrivacyParams(epsilon=5.0, delta=delta))
        assert u_strict > u_loose


def test_classic_sigma_hand_value():
    # log(1.25/delta) = 2 by construction, so sigma = sqrt(4) / epsilon
    sigma = classic_sigma_formula(1.0 - 1e-12, 1.25 * math.exp(-2.0), 1.0)
    assert sigma == pytest.approx(2.0, rel=1e-9)


def test_classic_sigma_zero_sensitivity():
    assert classic_sigma_formula(0.5, 0.1, 0.0) == 0.0
    with pytest.raises(ValueError, match="sensitivity must be >= 0, got -1.0"):
        classic_sigma_formula(0.5, 0.1, -1.0)


def test_classic_sigma_reference_value():
    # frozen from a 30-digit arbitrary-precision evaluation of the formula
    sigma = classic_sigma_formula(0.5, 1.0 / 73404, 1.0)
    assert sigma == pytest.approx(9.5611201269913035, abs=1e-9)


def test_classic_sigma_epsilon_range_enforced():
    # the one check of the range in which the closed form is proven, read by
    # the gaussian and jaccard mechanisms and by `nadp calibrate`
    for eps in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match=r"proven only for epsilon in \(0, 1\)"):
            check_epsilon("gaussian", eps, True)
    for eps in (1.0, 1.5):
        assert not check_epsilon("gaussian", eps, False)
    # unproven or not, the closed form never runs at 0 or below
    with pytest.raises(ValueError, match=r"epsilon must be > 0, got 0.0"):
        check_epsilon("gaussian", 0.0, False)
    for strict in (True, False):
        with pytest.raises(ValueError, match=r"epsilon must be finite and >= 0"):
            check_epsilon("gaussian", -0.2, strict)
    for eps in (1e-12, 0.5, math.nextafter(1.0, 0.0)):
        assert check_epsilon("gaussian", eps, True)


def test_check_dp_condition_at_the_boundary():
    params = PrivacyParams(epsilon=1.0, delta=0.05)
    u = solve_u_star(params)
    # sigma = u * Delta is private exactly when g(sigma / Delta) <= delta
    for Delta in (0.5, 1.0, 7.0):
        assert g(u * Delta / Delta, params.epsilon) <= params.delta
        assert g(0.99 * u * Delta / Delta, params.epsilon) > params.delta


def test_classic_sigma_satisfies_condition_and_is_never_tighter():
    # numerical sweep: the closed form is sufficient but not minimal
    for eps in [0.1, 0.3, 0.5, 0.7, 0.9]:
        for delta in DELTA_GRID:
            params = PrivacyParams(epsilon=eps, delta=delta)
            classic = classic_sigma_formula(eps, delta, 1.0)
            assert g(classic, eps) <= delta  # private at Delta = 1
            assert solve_u_star(params) <= classic


def test_check_dp_condition_limits():
    params = PrivacyParams(epsilon=0.5, delta=0.1)
    # at Delta = 1, sigma = u
    assert g(1e9, params.epsilon) <= params.delta
    assert g(1e-9, params.epsilon) > params.delta


def test_privacy_params_validation():
    with pytest.raises(ValueError):
        PrivacyParams(epsilon=-0.1, delta=0.1)
    with pytest.raises(ValueError):
        PrivacyParams(epsilon=1.0, delta=0.0)
    with pytest.raises(ValueError):
        PrivacyParams(epsilon=1.0, delta=1.0)


def test_calibrate_components_scales():
    params = PrivacyParams(epsilon=1.0, delta=0.05)
    result = calibrate_components(np.array([0.0, 1.0, 2.5]), params)
    u = result.u_star
    assert result.sigma_per_component.tolist() == [0.0, u, 2.5 * u]
    # sigma is zero exactly where the sensitivity is zero
    assert (result.sigma_per_component == 0).tolist() == [True, False, False]
    with pytest.raises(ValueError):
        calibrate_components(np.array([-1.0]), params)
