import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from nls.exponents import (
    InfeasibleExponentError,
    ModelParams,
    alpha1_threshold,
    alpha2_threshold,
    critical_exponents,
    gradient_monotone_condition,
    strichartz_indices,
)
from nls.oracle import SelfSimilarParams


def mp_alpha1(n):
    return 8 / (n + 2 + mp.sqrt(n**2 + 4 * n + 36))


def mp_alpha2(n):
    return 8 / (n + mp.sqrt(n**2 + 16 * n))


def test_threshold_values_against_arbitrary_precision():
    mp.mp.dps = 30
    for n in range(1, 65):
        assert alpha1_threshold(n) == pytest.approx(float(mp_alpha1(n)), abs=1e-15)
        assert alpha2_threshold(n) == pytest.approx(float(mp_alpha2(n)), abs=1e-15)


def test_crossover_dimension_seven():
    # the improvement over alpha1 starts exactly at N = 7
    assert alpha2_threshold(7) == pytest.approx(0.40632696717496574, rel=1e-14)
    assert alpha1_threshold(7) == pytest.approx(0.40753645318366235, rel=1e-14)
    assert alpha2_threshold(6) == pytest.approx(0.45742710775633811, rel=1e-14)
    assert alpha1_threshold(6) == pytest.approx(0.4494897427831781, rel=1e-14)
    crossover = [n for n in range(1, 65) if alpha2_threshold(n) < alpha1_threshold(n)]
    assert crossover == list(range(7, 65))


def test_thresholds_dimension_one():
    r = critical_exponents(ModelParams(1, 0.5))
    assert r.fujita == 2.0
    assert r.mass_critical == 4.0
    assert math.isinf(r.energy_critical)


def test_energy_critical_finite_above_two_dimensions():
    assert math.isinf(critical_exponents(ModelParams(2, 1.0)).energy_critical)
    assert critical_exponents(ModelParams(3, 1.0)).energy_critical == 4.0
    assert critical_exponents(ModelParams(6, 0.2)).energy_critical == 1.0


def test_alpha2_between_fujita_and_mass_critical():
    prev = None
    for n in range(1, 65):
        a2 = alpha2_threshold(n)
        assert a2 < 4.0 / n
        if n >= 3:
            assert a2 > 2.0 / n
        # N alpha2(N) increases to 4 from below
        if prev is not None:
            assert n * a2 > prev
        prev = n * a2
    assert prev < 4.0
    assert prev > 3.7


def test_strichartz_chain_reference_point():
    r = strichartz_indices(ModelParams(3, 1.0, -1j), a=12.0)
    assert r.rho == pytest.approx(2.25, abs=1e-14)
    assert r.gamma == pytest.approx(12.0, abs=1e-12)
    assert r.a_tilde == pytest.approx(12.0, abs=1e-12)
    assert r.mu == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert r.s == pytest.approx(0.0, abs=1e-13)
    assert r.flags.condition_fDfa_holds  # 3/4 > 1/2
    assert r.flags.h_in_Lmu
    # admissibility: 2/gamma = N(1/2 - 1/rho)
    assert 2 / r.gamma == pytest.approx(3 * (0.5 - 1 / r.rho), abs=1e-14)


def test_limit_of_large_a():
    r = strichartz_indices(ModelParams(3, 1.0), a=1e12)
    assert r.s == pytest.approx(1.0 / 6.0, rel=1e-9)
    assert r.mu == pytest.approx(6.0 / 5.0, rel=1e-9)


def test_a_equal_gamma_forces_s_zero():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 12))
        lo, hi = alpha2_threshold(n), 4.0 / n
        alpha = lo + (hi - lo) * rng.uniform(0.05, 0.95)
        gamma = 4 * (alpha + 2) / (alpha * (n - 2))
        r = strichartz_indices(ModelParams(n, alpha), a=gamma)
        assert r.s == pytest.approx(0.0, abs=1e-12)
        assert r.a_tilde == pytest.approx(gamma, rel=1e-12)


def test_index_identities_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(3, 16))
        lo, hi = alpha2_threshold(n), 4.0 / n
        alpha = lo + (hi - lo) * rng.uniform(0.02, 0.98)
        gamma = 4 * (alpha + 2) / (alpha * (n - 2))
        a = gamma * rng.uniform(1.0, 20.0)
        r = strichartz_indices(ModelParams(n, alpha), a=a)
        # conjugate-exponent identity 1/a_tilde' = 1/mu + (alpha+1)/a
        lhs = 1 / (r.a_tilde / (r.a_tilde - 1))
        rhs = 1 / r.mu + (alpha + 1) / a
        assert lhs == pytest.approx(rhs, abs=1e-12)
        # s from the definition equals 2/gamma - 2/a
        assert r.s == pytest.approx(2 / r.gamma - 2 / a, abs=1e-12)
        # admissibility and the rho bounds
        assert 2 / r.gamma == pytest.approx(n * (0.5 - 1 / r.rho), abs=1e-12)
        assert 2 < r.rho < 2 * n / (n - 2)
        assert r.rho < n
        assert 0 <= r.s < 1


def test_strichartz_rejections():
    with pytest.raises(InfeasibleExponentError):
        strichartz_indices(ModelParams(3, 1.0), a=5.0)  # below gamma = 12
    with pytest.raises(InfeasibleExponentError):
        strichartz_indices(ModelParams(3, 0.5), a=50.0)  # alpha below alpha2
    with pytest.raises(InfeasibleExponentError):
        strichartz_indices(ModelParams(3, 1.4), a=50.0)  # alpha above 4/N
    with pytest.raises(InfeasibleExponentError):
        strichartz_indices(ModelParams(2, 0.9), a=50.0)  # needs N >= 3


def test_smallest_valid_a():
    # gamma already satisfies the strict condition at (3, 1)
    assert strichartz_indices(ModelParams(3, 1.0)).a == pytest.approx(12.0)
    # at alpha = alpha2 the condition degenerates and no a exists
    with pytest.raises(InfeasibleExponentError):
        strichartz_indices(ModelParams(3, alpha2_threshold(3)))
    # interior points: dimension 10, and N = 7 inside (alpha2(7), alpha1(7)],
    # the range the alpha2 threshold adds; a finite a where the condition holds
    for n, alpha in [(10, 0.35), (7, 0.407)]:
        r = strichartz_indices(ModelParams(n, alpha))
        assert math.isfinite(r.a)
        assert r.flags.condition_fDfa_holds
        # a* via bisection on the strict condition as an independent check
        def holds(av):
            return (4 - (n - 4) * alpha) / (2 * (alpha + 2)) - alpha / av > (4 - n * alpha) / 2

        lo, hi = 1e-3, 1e3
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if holds(mid) else (mid, hi)
        gamma = 4 * (alpha + 2) / (alpha * (n - 2))
        assert r.a == pytest.approx(max(gamma, 1.05 * hi), rel=1e-6)
    # at N = 7 (the last point) the a* branch is taken, far above gamma, and
    # every flag holds
    assert alpha2_threshold(7) < 0.407 <= alpha1_threshold(7)
    assert r.gamma == pytest.approx(4.73, abs=5e-3)
    assert r.a == pytest.approx(240.81, abs=5e-3)
    assert all(dataclasses.astuple(r.flags))


def test_gradient_monotone_condition():
    assert gradient_monotone_condition(ModelParams(1, 1.0, -1j))
    assert gradient_monotone_condition(ModelParams(3, 5.0, -1j))
    assert not gradient_monotone_condition(ModelParams(1, 1.0, 1j))
    # kappa = 1 - i, alpha = 2: need 1 >= 2/(2 sqrt 3) ~ 0.577
    assert gradient_monotone_condition(ModelParams(1, 2.0, 1.0 - 1.0j))
    # borderline: pure real kappa fails unless Re kappa = 0
    assert not gradient_monotone_condition(ModelParams(1, 2.0, 1.0 + 0.0j))
    assert gradient_monotone_condition(ModelParams(1, 2.0, 0.0 + 0.0j))


def test_scattering_window_flag():
    r = critical_exponents(ModelParams(3, 1.0))
    assert r.flags.alpha_in_scattering_window
    assert not critical_exponents(ModelParams(3, 0.5)).flags.alpha_in_scattering_window
    assert not critical_exponents(ModelParams(1, 3.0)).flags.alpha_in_scattering_window


@pytest.mark.parametrize("n", [3, 4, 7, 8])
def test_scattering_window_is_closed_at_mass_critical_power(n):
    model = ModelParams(n, 4.0 / n)
    assert critical_exponents(model).flags.alpha_in_scattering_window
    r = strichartz_indices(model)
    assert all(dataclasses.astuple(r.flags))
    assert r.a == r.gamma
    assert r.s == pytest.approx(0.0, abs=1e-15)
    assert 2 < r.rho < 2 * n / (n - 2)
    above = ModelParams(n, math.nextafter(4.0 / n, math.inf))
    assert not critical_exponents(above).flags.alpha_in_scattering_window
    with pytest.raises(InfeasibleExponentError, match="outside the scattering window"):
        strichartz_indices(above, r.a)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(2, -1.0)
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            ModelParams(2, alpha)
    for kappa in (complex(math.nan, -1), complex(0, math.nan), complex(math.inf, 0), math.nan):
        with pytest.raises(ValueError, match="kappa must be finite"):
            ModelParams(2, 1.0, kappa)
    for z0 in (complex(math.nan, 0), complex(1, math.inf)):
        with pytest.raises(ValueError, match="z0 must be finite"):
            SelfSimilarParams(1.0, z0, ModelParams(2, 1.0, -1j))


def test_gamma_two_expressions_agree():
    # gamma = 4(alpha+2)/(alpha(N-2)) = 4 rho / (N (rho - 2))
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(3, 20))
        lo, hi = alpha2_threshold(n), 4.0 / n
        alpha = lo + (hi - lo) * rng.uniform(0.05, 0.95)
        rho = n * (alpha + 2) / (n + alpha)
        gamma = 4 * (alpha + 2) / (alpha * (n - 2))
        assert gamma == pytest.approx(4 * rho / (n * (rho - 2)), rel=1e-12)
