import math

import numpy as np
import pytest
from scipy import integrate

from cra.specfun import _INV_E, lambert_w0, poisson_cdf, qfunc

from helpers import lambert_bisect, poisson_cdf_sum


class TestLambertW0:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_branch_point(self):
        assert lambert_w0(-_INV_E) == pytest.approx(-1.0, abs=1e-7)

    def test_unity_against_bisection(self):
        # omega constant: bisection on w*exp(w) = 1 over [0, 1]
        oracle = lambert_bisect(1.0, lo=0.0, hi=1.0)
        assert oracle == pytest.approx(0.5671432904, abs=1e-9)
        assert lambert_w0(1.0) == pytest.approx(oracle, abs=1e-12)

    def test_matches_bisection_on_grid(self):
        for y in [-0.36, -0.3, -0.1, -1e-3, 1e-3, 0.5, 2.0, 10.0, 1e3, 1e6]:
            w = lambert_w0(y)
            assert w == pytest.approx(lambert_bisect(y), abs=1e-10, rel=1e-10)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        ys = np.concatenate([
            rng.uniform(-_INV_E, 0.0, 4000),
            rng.uniform(0.0, 1.0, 3000),
            rng.uniform(1.0, 1e3, 3000),
        ])
        for y in ys:
            w = lambert_w0(float(y))
            assert abs(w * math.exp(w) - y) <= 1e-12 * max(1.0, abs(y))

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(1)
        ys = np.sort(rng.uniform(-_INV_E, 50.0, 2000))
        ws = [lambert_w0(float(y)) for y in ys]
        assert all(b >= a for a, b in zip(ws, ws[1:]))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-_INV_E - 1e-9)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            lambert_w0(math.nan)

    def test_clamp_just_below_branch(self):
        assert lambert_w0(-_INV_E - 1e-13) == pytest.approx(-1.0, abs=1e-6)


class TestPoissonCdf:
    def test_zero_mean_is_point_mass(self):
        assert poisson_cdf(5, 0.0) == 1.0

    def test_single_term(self):
        assert poisson_cdf(0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-14)

    def test_against_direct_sum(self):
        oracle = poisson_cdf_sum(29, 27.68)
        assert oracle == pytest.approx(0.6456881037420283, abs=1e-12)
        assert poisson_cdf(29, 27.68) == pytest.approx(oracle, abs=1e-10)

    def test_direct_sum_grid(self):
        for n, mu in [(0, 0.5), (3, 2.0), (10, 10.0), (50, 30.0), (200, 180.0)]:
            assert poisson_cdf(n, mu) == pytest.approx(
                poisson_cdf_sum(n, mu), abs=1e-12)

    def test_large_mu_stable(self):
        # no overflow; CLT: Pr(X <= mu) -> 1/2 for large mu
        val = poisson_cdf(10_000, 1e4)
        assert 0.45 < val < 0.55
        assert poisson_cdf(9_000, 1e4) < 1e-20

    def test_monotone_in_n(self):
        vals = [poisson_cdf(n, 7.3) for n in range(40)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_mu(self):
        vals = [poisson_cdf(5, mu) for mu in np.linspace(0.0, 30.0, 100)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_invalid_args(self):
        # Pr(X <= -1) = 0 for X >= 0; a negative mean is no Poisson law
        assert poisson_cdf(-1, 1.0) == 0.0
        with pytest.raises(ValueError):
            poisson_cdf(3, -0.5)


class TestQfunc:
    def test_half_at_zero(self):
        assert qfunc(0.0) == 0.5

    def test_far_tail(self):
        assert qfunc(40.0) <= 1e-300

    def test_against_quadrature(self):
        pdf = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
        for x in [0.5, 1.0, 2.0, 3.0]:
            oracle, _ = integrate.quad(pdf, x, math.inf)
            assert qfunc(x) == pytest.approx(oracle, rel=1e-10)
        assert qfunc(1.0) == pytest.approx(0.158655253931457, abs=1e-12)

    def test_symmetry(self):
        for x in np.linspace(-5.0, 5.0, 101):
            assert abs(qfunc(x) + qfunc(-x) - 1.0) <= 1e-14

    def test_strictly_decreasing(self):
        xs = np.linspace(-8.0, 8.0, 400)
        vals = [qfunc(float(x)) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
