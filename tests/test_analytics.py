"""Closed forms and bounds against enumeration and numeric oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammainc

from rbtrees.analytics import (
    ENUMERATION_MAX_N,
    ExactDistribution,
    _mu,
    beta_product_survival,
    c_star,
    chernoff_record_tail,
    conditional_height_tail_bound,
    enumerate_exact,
    left_profile_tail_bound,
    left_root_tail,
    mu,
    profile_exceedance_thresholds,
    profile_tail_constants,
    records_mgf,
    root_split_distribution,
    root_split_pmf,
)
from rbtrees.model import LeftProfile, RbParams

from reference import poisson_binomial_pmf, ref_bst, ref_enumerate_weighted, ref_height, ref_records

THETA_GRID = (0.5, 1.0, 2.0, 5.0)


def unsigned_stirling_first(n):
    """|s(n, r)| for r = 0..n: the number of permutations of S_n with r records."""
    stirling = [1]
    for m in range(n):
        stirling = [a * m + b for a, b in zip([*stirling, 0], [0, *stirling])]
    return stirling


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestMu:
    def test_harmonic(self):
        assert mu(3, 1.0) == pytest.approx(11 / 6, abs=1e-15)

    def test_degenerate(self):
        assert mu(0, 2.0) == 0.0
        assert mu(5, 0.0) == 1.0

    def test_integral_sandwich(self):
        # |mu - (1 + theta*log(1 + n/theta))| <= theta*log(1 + 1/theta)
        for theta in (0.1, 0.5, 1.0, 2.0, 17.0, 500.0):
            for n in (1, 2, 10, 100, 10**4):
                mid = 1.0 + theta * math.log1p(n / theta)
                slack = theta * math.log1p(1.0 / theta)
                assert abs(mu(n, theta) - mid) <= slack + 1e-12

    def test_hundred_elements_bracket(self):
        assert abs(mu(100, 2.0) - (1 + 2 * math.log(51))) <= 2 * math.log(1.5)

    def test_monotone(self):
        values = [mu(n, 2.0) for n in range(0, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))
        thetas = [0.1, 0.5, 1.0, 3.0, 10.0]
        across = [mu(20, t) for t in thetas]
        assert all(b > a for a, b in zip(across, across[1:]))

    @pytest.mark.parametrize("n", (1, 3, 8191, 8192, 8193, 10**5))
    def test_matches_exact_sum(self, n):
        # chunk edges at 8192; theta from near 0 to far beyond n
        for theta in (1e-300, 0.5, 1.0, math.sqrt(n), float(n), 1e12):
            exact = math.fsum(theta / (theta + i) for i in range(n))
            assert mu(n, theta) == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_memory_stays_small(self):
        _mu.cache_clear()
        tracemalloc.start()
        try:
            mu(10**6, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", (1, 7, 10**6))
    def test_theta_zero_has_one_record(self, n):
        # the last scan step is a record at every theta, and at theta = 0 no other step is
        assert mu(n, 0.0) == 1.0
        assert records_mgf(RbParams(n, 0.0), 0.5) == pytest.approx(math.exp(0.5), rel=1e-14)


class TestCStar:
    def test_residual(self):
        c = c_star()
        assert abs(c * math.log(2 * math.e / c) - 1.0) < 1e-13
        assert c >= 2.0

    def test_bracket(self):
        def g(c):
            return c * math.log(2 * math.e / c) - 1.0

        assert g(4.31) > 0.0 > g(4.32)
        assert 4.31 < c_star() < 4.32

    def test_prefix(self):
        assert repr(c_star()).startswith("4.311")

    def test_correctly_rounded(self):
        # the 50-digit root is 4.31107040700100503504707609644689; the float below it is
        # 6.2e-16 away, this one 2.7e-16
        assert c_star() == 4.311070407001005

    def test_literal_is_lamberts_w_root_within_4_ulp_of_the_equation(self):
        from scipy.special import lambertw

        c = c_star()
        assert c == float(-1 / lambertw(-0.5 / math.e).real)
        assert abs(c * math.log(2 * math.e / c) - 1.0) <= 4 * math.ulp(1.0)


class TestRootSplit:
    def test_s2(self):
        params = RbParams(2, 2.0)
        assert root_split_pmf(params, 1) == pytest.approx(2 / 3, rel=1e-14)
        assert root_split_pmf(params, 2) == pytest.approx(1 / 3, rel=1e-14)

    def test_uniform_theta(self):
        params = RbParams(7, 1.0)
        for k in range(1, 8):
            assert root_split_pmf(params, k) == pytest.approx(1 / 7, rel=1e-13)

    def test_single_element(self):
        assert root_split_pmf(RbParams(1, 3.0), 1) == 1.0

    def test_theta_zero_concentrates_at_n(self):
        pmf = root_split_distribution(RbParams(4, 0.0))
        assert pmf == [0.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize("n", (7, 242))
    def test_forced_last_step_is_the_survival(self, n):
        # P(first value = n) is P(no record in the first n - 1 steps), bit for bit: no
        # survival * theta / theta round trip
        params = RbParams(n, 2.8500464767894975)
        assert root_split_pmf(params, n) == left_root_tail(params, n - 1)
        assert root_split_distribution(params)[-1] == left_root_tail(params, n - 1)

    @pytest.mark.parametrize("theta", (1e-3, 1e-1, 1.0, 1e1, 1e3))
    @pytest.mark.parametrize("n", (1, 2, 10, 100, 10**4))
    def test_sums_to_one(self, n, theta):
        pmf = root_split_distribution(RbParams(n, theta))
        assert abs(math.fsum(pmf) - 1.0) <= 1e-12
        assert all(p >= 0.0 for p in pmf)

    def test_scalar_matches_vector(self):
        params = RbParams(200, 3.5)
        pmf = root_split_distribution(params)
        for k in (1, 2, 57, 199, 200):
            assert root_split_pmf(params, k) == pytest.approx(pmf[k - 1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("theta", (1e-3, 0.5, 2.0, 1e6))
    @pytest.mark.parametrize("n", (1, 2, 50, 100, 10**4))
    def test_scalar_is_vector_bit_for_bit(self, n, theta):
        # every k costs O(n^2) in all at n = 10**4 (12 s per theta), so that n takes a stride
        params = RbParams(n, theta)
        pmf = root_split_distribution(params)
        ks = range(1, n + 1) if n <= 100 else [*range(1, n, 101), n]
        assert [root_split_pmf(params, k) for k in ks] == [pmf[k - 1] for k in ks]

    @pytest.mark.parametrize("theta", (1e17, 1e300))
    def test_theta_far_above_n(self, theta):
        # theta / (theta + n - i) rounds to 1.0 here; the law must still sum to 1
        params = RbParams(5, theta)
        pmf = root_split_distribution(params)
        assert math.fsum(pmf) == pytest.approx(1.0, rel=0.0, abs=1e-12)
        assert pmf[0] == pytest.approx(1.0, rel=1e-15)
        assert root_split_pmf(params, 2) == pmf[1] == pytest.approx(4.0 / theta, rel=1e-12)
        assert left_root_tail(params, 2) == pytest.approx(12.0 / theta / theta, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "theta", (Fraction(1, 1000), Fraction(7, 2), Fraction(10**6)), ids=("1e-3", "3.5", "1e6")
    )
    @pytest.mark.parametrize("n", (1, 2, 7, 50))
    def test_matches_exact_product(self, n, theta):
        # P(first = k) = prod_{i < k} (n - i) / (theta + n - i) * theta / (theta + n - k)
        pmf = root_split_distribution(RbParams(n, float(theta)))
        survival = Fraction(1)
        for k in range(1, n + 1):
            exact = survival * theta / (theta + n - k)
            assert rel_err(pmf[k - 1], float(exact)) < 1e-12
            survival *= Fraction(n - k) / (theta + n - k)

    @pytest.mark.parametrize("n", (10**6, 10**7))
    def test_closed_forms_at_scale(self, n):
        # theta = 1 is uniform, and at theta = 2, P(first = n) = prod s / (s + 2) over
        # 1 <= s < n, which is 2 / (n (n + 1)); a plain cumsum of the log terms is 9e-14 to
        # 1.3e-13 off here
        for k in (1, n // 2, n):
            assert rel_err(root_split_pmf(RbParams(n, 1.0), k), 1 / n) <= 1e-14
        params = RbParams(n, 2.0)
        last = root_split_pmf(params, n)
        assert last == left_root_tail(params, n - 1)
        assert rel_err(last, 2 / (n * (n + 1))) <= 1e-14

    def test_scalar_memory_stays_small(self):
        # the prefix is read in chunks: a table of all 10**7 log survivals would take 80 MB
        tracemalloc.start()
        try:
            root_split_pmf(RbParams(10**7, 2.0), 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            root_split_pmf(RbParams(3, 1.0), 0)
        with pytest.raises(ValueError):
            root_split_pmf(RbParams(3, 1.0), 4)


class TestLeftRootTail:
    def test_edges(self):
        params = RbParams(5, 2.0)
        assert left_root_tail(params, 0) == 1.0
        assert left_root_tail(params, 5) == 0.0

    def test_s2(self):
        assert left_root_tail(RbParams(2, 2.0), 1) == pytest.approx(1 / 3, rel=1e-14)

    @pytest.mark.parametrize("n,theta", ((10, 0.5), (10, 2.0), (1000, 1e-2), (10**4, 3.0)))
    def test_matches_pmf_tail(self, n, theta):
        params = RbParams(n, theta)
        pmf = root_split_distribution(params)
        for k in (0, 1, n // 3, n - 1, n):
            tail = math.fsum(pmf[k:])  # P(sigma(1) >= k+1) = P(left >= k)
            assert abs(left_root_tail(params, k) - tail) <= 1e-12


class TestRecordsMgf:
    def test_at_zero(self):
        for n, theta in ((0, 1.0), (5, 0.5), (50, 10.0)):
            assert records_mgf(RbParams(n, theta), 0.0) == 1.0

    def test_single_element(self):
        for theta in THETA_GRID:
            for t in (-800.0, -37.0, -30.0, -1.0, 0.3, 2.0):
                assert records_mgf(RbParams(1, theta), t) == pytest.approx(math.exp(t), rel=1e-14, abs=0.0)

    def test_n2_uniform(self):
        for t in (-1.0, 0.5, 1.0):
            expected = (math.exp(2 * t) + math.exp(t)) / 2
            assert records_mgf(RbParams(2, 1.0), t) == pytest.approx(expected, rel=1e-13)

    def test_theta_zero_limit(self):
        for t in (-800.0, -37.0, -30.0, -0.5, 0.7):
            assert records_mgf(RbParams(6, 0.0), t) == pytest.approx(math.exp(t), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "theta,t,expected",
        (
            (1e17, -30.0, 8.1966397643717835e-40),
            (1e17, -38.0, 6.677422975551544e-50),
            (1e300, -38.0, 3.0933500113085608e-50),
        ),
    )
    def test_huge_theta_far_below_zero(self, theta, t, expected):
        # theta / (theta + k) rounds to 1 here, so each step must keep its 1 - p apart;
        # the expected values are 60-digit mpmath products
        assert records_mgf(RbParams(3, theta), t) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n,theta", ((3, 0.5), (20, 2.0), (500, 5.0)))
    def test_log_derivative_is_mu(self, n, theta):
        params = RbParams(n, theta)
        h = 1e-5
        deriv = (math.log(records_mgf(params, h)) - math.log(records_mgf(params, -h))) / (2 * h)
        assert rel_err(deriv, mu(n, theta)) < 1e-6

    def test_memory_stays_small(self):
        tracemalloc.start()
        try:
            records_mgf(RbParams(10**6, 2.0), 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestChernoff:
    def test_closed_form_optimum_upper(self):
        # grid search over t must not beat the closed-form optimum
        params = RbParams(30, 2.0)
        m = mu(30, 2.0)
        eps = 0.4
        bound = chernoff_record_tail(params, eps)[0]
        assert bound == pytest.approx(math.exp(-m * ((1 + eps) * math.log(1 + eps) - eps)), rel=1e-13)
        for t in np.linspace(1e-4, 3.0, 400):
            grid_value = math.exp(m * ((math.exp(t) - 1.0) - t * (1 + eps)))
            assert bound <= grid_value * (1 + 1e-12)

    def test_closed_form_optimum_lower(self):
        params = RbParams(30, 2.0)
        m = mu(30, 2.0)
        eps = 0.4
        bound = chernoff_record_tail(params, eps)[1]
        for t in np.linspace(1e-4, 5.0, 400):
            grid_value = math.exp(m * ((math.exp(-t) - 1.0) + t * (1 - eps)))
            assert bound <= grid_value * (1 + 1e-12)

    def test_small_epsilon_tends_to_one(self):
        params = RbParams(100, 1.0)
        upper, lower, _ = chernoff_record_tail(params, 1e-9)
        assert upper == pytest.approx(1.0, abs=1e-6)
        assert lower == pytest.approx(1.0, abs=1e-6)

    def test_large_epsilon_lower_degenerates(self):
        params = RbParams(50, 2.0)
        m = mu(50, 2.0)
        assert chernoff_record_tail(params, 1.0)[1] == pytest.approx(math.exp(-m), rel=1e-13)
        assert chernoff_record_tail(params, 2.5)[1] == pytest.approx(math.exp(-m), rel=1e-13)

    def test_decreasing_in_mu(self):
        values = [chernoff_record_tail(RbParams(n, 2.0), 0.5)[0] for n in (5, 20, 100, 1000)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("theta", THETA_GRID)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_dominates_exact_tails(self, n, theta):
        params = RbParams(n, theta)
        law = enumerate_exact(params).record
        m = mu(n, theta)
        outcomes = tuple(zip(law.support, law.probs))
        for eps in (0.1, 0.25, 0.5, 1.0, 2.0):
            upper, lower, two_sided = chernoff_record_tail(params, eps)
            assert two_sided == min(1.0, upper + lower)
            assert upper + 1e-12 >= math.fsum(p for r, p in outcomes if r >= (1 + eps) * m)
            assert lower + 1e-12 >= math.fsum(p for r, p in outcomes if r <= (1 - eps) * m)

    def test_errors(self):
        for epsilon in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                chernoff_record_tail(RbParams(100, 2.0), epsilon)
        with pytest.raises(ValueError, match="^n must be"):
            chernoff_record_tail(RbParams(0, 2.0), 0.5)

    def test_theta_zero_has_mu_one(self):
        # one record for sure: the bounds are those of mu = 1
        upper, lower, total = chernoff_record_tail(RbParams(5, 0.0), 0.5)
        assert upper == math.exp(-(1.5 * math.log1p(0.5) - 0.5))
        assert lower == math.exp(-(0.5 + 0.5 * math.log1p(-0.5)))
        assert total == min(1.0, upper + lower)


class TestBetaProductSurvival:
    def test_empty_product(self):
        assert beta_product_survival(2.0, 0, 0.99) == 1.0

    def test_single_factor(self):
        for theta in (0.5, 2.0, 7.0):
            for c in (0.1, 0.5, 0.9):
                assert beta_product_survival(theta, 1, c) == pytest.approx(1 - c**theta, rel=1e-12)

    def test_monte_carlo(self):
        theta, j, c = 2.0, 3, 0.1
        rng = np.random.default_rng(12345)
        draws = rng.random((10**6, j)) ** (1.0 / theta)
        emp = float((draws.prod(axis=1) > c).mean())
        exact = beta_product_survival(theta, j, c)
        se = math.sqrt(exact * (1 - exact) / 10**6)
        assert abs(emp - exact) <= 3 * se

    def test_matches_gammainc(self):
        # scipy's regularized incomplete gamma P(j, x) is the independent reference for the
        # Poisson sum, at x = theta * -log(c) = e**U with U uniform on [-12, 7]
        rng = np.random.default_rng(28)
        size = 50_000
        js = rng.integers(1, 61, size=size)
        cs = rng.uniform(0.01, 0.99, size=size)
        thetas = np.exp(rng.uniform(-12.0, 7.0, size=size)) / -np.log(cs)
        cases = [(float(theta), int(j), float(c)) for theta, j, c in zip(thetas, js, cs)]
        got = np.array([beta_product_survival(*case) for case in cases])
        want = gammainc(js, [theta * -math.log(c) for theta, _, c in cases])
        err = np.abs(got - want)
        assert err.max() <= 1e-12
        # scipy flushes some tails below the normal range to 0, where the sum keeps them
        small = (want < 0.5) & (want >= np.finfo(float).tiny)
        assert small.sum() > size // 4
        assert np.all(err[small] <= 1e-12 * want[small])

    @pytest.mark.parametrize(
        "theta,j,c",
        (
            (1e6, 1, 1e-6),
            (1e6, 60, 1e-6),
            (1e6, 13_815_511, 1e-6),  # j at x = 1e6 * ln(1e6), the middle of the law
            (1e6, 10**8, 1e-6),
            (1e4, 10_000, math.exp(-1.0)),
            (1e4 - 0.7, 10_000, math.exp(-1.0)),
            (1e4 + 0.5, 10_001, math.exp(-1.0)),
        ),
    )
    def test_far_from_the_grid_stays_a_probability(self, theta, j, c):
        p = beta_product_survival(theta, j, c)
        assert math.isfinite(p) and 0.0 <= p <= 1.0
        # the first term's exponent rounds parts of size x, so the error grows with x
        x = theta * -math.log(c)
        assert p == pytest.approx(float(gammainc(j, x)), abs=1e-14 * x)

    def test_x_past_the_float_range(self):
        # theta * -log(c) underflows to 0 or overflows to inf only at the ends of theta's range
        assert beta_product_survival(5e-324, 3, 0.999999) == 0.0
        assert beta_product_survival(1e308, 3, 1e-300) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            beta_product_survival(0.0, 1, 0.5)
        with pytest.raises(ValueError):
            beta_product_survival(1.0, 1, 1.0)
        with pytest.raises(ValueError):
            beta_product_survival(1.0, 1, 0.0)


class TestProfileTailBound:
    def test_vanishes_as_m_grows(self):
        params = RbParams(10**4, 2.0)
        values = [left_profile_tail_bound(params, 0.1, M, 5) for M in (1.0, 5.0, 20.0, 80.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-15

    def test_loglog_window_is_finite_positive(self):
        n = 10**4
        M = 2 * math.log(math.log(n))
        value = left_profile_tail_bound(RbParams(n, 2.0), 0.1, M, 5)
        assert value > 0.0
        assert math.isfinite(value)

    def test_constants(self):
        C, lam = profile_tail_constants(2.0, 0.1)
        u = 0.2
        assert C == pytest.approx(1.0 / (1.0 - (1.0 - u) * math.exp(u)), rel=1e-14)
        assert lam == pytest.approx(0.1 * 4.0 / 0.8, rel=1e-14)

    @pytest.mark.parametrize("theta", (0.5, 2.0, 5.0))
    def test_bound_uses_the_constants_at_its_own_theta(self, theta):
        # C and lam in closed form at the bound's theta, which is given once, in params
        n, eps, M, k = 10**4, 0.1, 3.0, 5
        u = eps * theta
        C = 1.0 / (1.0 - (1.0 - u) * math.exp(u))
        lam = eps * theta**2 / (1.0 - u)
        xi = k * math.exp((1.0 / theta - eps) * k) / (n * math.exp(M))
        expected = C * math.exp(-lam * M) * (1.0 - xi) ** (-lam)
        bound = left_profile_tail_bound(RbParams(n, theta), eps, M, k)
        assert bound == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("u", (1e-12, 1e-8, 1e-6, 1e-4, 0.2, 0.9))
    def test_constant_c_matches_exact_series(self, u):
        # C = 1 / (1 - (1 - u) e^u) with the gap summed exactly as sum_{k>=2} (k-1) u^k / k!
        exact = Fraction(u)
        gap = sum(Fraction(k - 1) * exact**k / math.factorial(k) for k in range(2, 80))
        assert profile_tail_constants(1.0, u)[0] == pytest.approx(float(1 / gap), rel=1e-14)

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            profile_tail_constants(2.0, 0.5)  # eps*theta = 1
        with pytest.raises(ValueError, match="not finite"):
            profile_tail_constants(1.0, 1e-320)
        with pytest.raises(ValueError):
            left_profile_tail_bound(RbParams(10, 2.0), 0.1, 0.0, 40)  # Xi >= 1
        for epsilon in (math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                profile_tail_constants(1.0, epsilon)
        with pytest.raises(ValueError, match="M must"):
            left_profile_tail_bound(RbParams(100, 2.0), 0.1, math.nan, 2)

    def test_thresholds_shape(self):
        ts = profile_exceedance_thresholds(RbParams(100, 2.0), 0.1, 1.0, 4)
        assert len(ts) == 5
        assert all(b < a for a, b in zip(ts, ts[1:]))


class TestConditionalHeightTailBound:
    def test_empty_profile_base_case(self):
        profile = LeftProfile(())
        t = math.log(2 * math.e)
        assert conditional_height_tail_bound(profile, 0, t) == pytest.approx(1.0, rel=1e-14)

    def test_monotone_decreasing_in_eta(self):
        profile = LeftProfile((3, 1, 0))
        t = math.log(2 * math.e)  # 2 e^{-t} = 1/e < 1
        values = [conditional_height_tail_bound(profile, eta, t) for eta in range(10)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_direct_sum(self):
        profile = LeftProfile((2, 0))
        eta, t = 4, 1.2
        base = 2 * math.exp(-t)
        expo = math.exp(t) - 1
        direct = sum(base ** (eta - j) * (k + 1) ** expo for j, k in enumerate((2, 0, 0)))
        assert conditional_height_tail_bound(profile, eta, t) == pytest.approx(direct, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            conditional_height_tail_bound(LeftProfile((1,)), -1, 1.0)
        with pytest.raises(ValueError):
            conditional_height_tail_bound(LeftProfile((1,)), 1, 0.0)


class TestEnumerate:
    def test_s2_laws(self):
        laws = enumerate_exact(RbParams(2, 2.0))
        assert laws.record.support == (1, 2)
        assert laws.record.probs == pytest.approx((1 / 3, 2 / 3))
        assert laws.first_value.support == (1, 2)
        assert laws.first_value.probs == pytest.approx((2 / 3, 1 / 3))
        assert laws.left_subtree_size.support == (0, 1)
        assert laws.left_subtree_size.probs == pytest.approx((2 / 3, 1 / 3))

    def test_s2_uniform_height(self):
        laws = enumerate_exact(RbParams(2, 1.0))
        assert (laws.height.support, laws.height.probs) == ((1,), (1.0,))

    def test_s3_uniform_height_from_reference(self):
        # direct enumeration of S_3: the balanced tree needs root 2, so
        # heights are {1: 2/6, 2: 4/6}
        ref = {}
        for values, w in ref_enumerate_weighted(3, 1.0).items():
            h = ref_height(ref_bst(values))
            ref[h] = ref.get(h, 0.0) + w
        assert ref == pytest.approx({1: 2 / 6, 2: 4 / 6})
        laws = enumerate_exact(RbParams(3, 1.0))
        assert laws.height.support == tuple(sorted(ref))
        assert laws.height.probs == pytest.approx([ref[h] for h in laws.height.support])

    @pytest.mark.parametrize("theta", (0.5, 2.0, 2.5))
    @pytest.mark.parametrize("n", (3, 4, 6))
    def test_full_reference_agreement(self, n, theta):
        ref_weights = ref_enumerate_weighted(n, theta)
        ref_record = {}
        ref_first = {}
        ref_height_law = {}
        for values, w in ref_weights.items():
            rec = ref_records(values)
            ref_record[rec] = ref_record.get(rec, 0.0) + w
            ref_first[values[0]] = ref_first.get(values[0], 0.0) + w
            h = ref_height(ref_bst(values))
            ref_height_law[h] = ref_height_law.get(h, 0.0) + w
        laws = enumerate_exact(RbParams(n, theta))
        for law, ref in (
            (laws.record, ref_record),
            (laws.first_value, ref_first),
            (laws.height, ref_height_law),
        ):
            assert law.support == tuple(sorted(ref))
            assert law.probs == pytest.approx([ref[x] for x in law.support], rel=1e-12)

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_matches_closed_forms_n8(self, theta):
        n = ENUMERATION_MAX_N
        params = RbParams(n, theta)
        laws = enumerate_exact(params)
        assert laws.first_value.support == laws.record.support == tuple(range(1, n + 1))
        for k, p in zip(laws.first_value.support, laws.first_value.probs):
            assert rel_err(p, root_split_pmf(params, k)) < 1e-10
        probs = [theta / (theta + n - i) for i in range(1, n + 1)]
        pb = poisson_binomial_pmf(probs)
        for rec, p in zip(laws.record.support, laws.record.probs):
            assert rel_err(p, pb[rec]) < 1e-10
        for t in (-1.0, 0.5, 1.0):
            from_law = math.fsum(
                p * math.exp(t * rec) for rec, p in zip(laws.record.support, laws.record.probs)
            )
            assert rel_err(from_law, records_mgf(params, t)) < 1e-10

    @pytest.mark.parametrize("n,theta", ((8, 1e39), (3, 1e200)))
    def test_theta_far_above_n(self, n, theta):
        # theta**n overflows a float here; the record law is s(n, r) theta**r normalized,
        # s the unsigned Stirling numbers of the first kind, and tends to {n: 1}
        stirling = unsigned_stirling_first(n)
        weights = {r: s * Fraction(theta) ** r for r, s in enumerate(stirling) if s}
        total = sum(weights.values())
        laws = enumerate_exact(RbParams(n, theta))
        assert laws.first_value.support == laws.record.support == tuple(range(1, n + 1))
        assert laws.record.probs[-1] == 1.0
        for r, p in zip(laws.record.support, laws.record.probs):
            assert rel_err(p, float(weights[r] / total)) < 1e-12
        params = RbParams(n, theta)
        for k, p in zip(laws.first_value.support, laws.first_value.probs):
            assert rel_err(p, root_split_pmf(params, k)) < 1e-12

    @pytest.mark.parametrize("n", (1, 3, 5))
    def test_theta_one_is_uniform(self, n):
        # every permutation weighs 1/n!: the first value is uniform and r records have
        # chance |s(n, r)| / n!
        laws = enumerate_exact(RbParams(n, 1.0))
        assert laws.first_value.support == laws.record.support == tuple(range(1, n + 1))
        assert laws.first_value.probs == pytest.approx([1 / n] * n, rel=1e-12)
        stirling = unsigned_stirling_first(n)
        expected = [stirling[r] / math.factorial(n) for r in laws.record.support]
        assert laws.record.probs == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("theta", (0.3, 2.5, 1e6))
    def test_laws_sum_to_one_over_s8(self, theta):
        laws = enumerate_exact(RbParams(ENUMERATION_MAX_N, theta))
        for law in (
            laws.record,
            laws.first_value,
            laws.left_subtree_size,
            laws.height,
            laws.profile,
            laws.profile_height,
            laws.height_record_first,
        ):
            assert abs(math.fsum(law.probs) - 1.0) <= 1e-14

    def test_record_law_matches_exact_fractions_at_n8(self):
        # P(r records) = |s(8, r)| theta**r / (theta (theta + 1) ... (theta + 7)), theta = 2.5
        # exactly in binary
        n, theta = ENUMERATION_MAX_N, Fraction(5, 2)
        rising = math.prod(theta + i for i in range(n))
        stirling = unsigned_stirling_first(n)
        laws = enumerate_exact(RbParams(n, 2.5))
        assert laws.record.support == tuple(range(1, n + 1))
        for r, p in zip(laws.record.support, laws.record.probs):
            assert rel_err(p, float(stirling[r] * theta**r / rising)) <= 1e-14

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_left_subtree_law_matches_left_root_tail(self, theta):
        n = ENUMERATION_MAX_N
        params = RbParams(n, theta)
        law = enumerate_exact(params).left_subtree_size
        assert law.support == tuple(range(n))
        for k in range(n + 1):
            assert abs(math.fsum(law.probs[k:]) - left_root_tail(params, k)) <= 1e-12

    def test_profile_law_consistency(self):
        laws = enumerate_exact(RbParams(5, 2.0))
        for sizes, p in zip(laws.profile.support, laws.profile.probs):
            assert len(sizes) + sum(sizes) == 5
            assert p > 0.0
        marg = {}
        for (sizes, _h), p in zip(laws.profile_height.support, laws.profile_height.probs):
            marg[sizes] = marg.get(sizes, 0.0) + p
        assert laws.profile.support == tuple(sorted(marg))
        expected = [marg[sizes] for sizes in laws.profile.support]
        assert laws.profile.probs == pytest.approx(expected, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match=f"n <= {ENUMERATION_MAX_N}"):
            enumerate_exact(RbParams(9, 1.0))
        with pytest.raises(ValueError):
            enumerate_exact(RbParams(4, 0.0))
        with pytest.raises(ValueError):
            enumerate_exact(RbParams(0, 1.0))


class TestExactDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExactDistribution(support=(1, 1), probs=(0.5, 0.5))
        with pytest.raises(ValueError):
            ExactDistribution(support=(1, 2), probs=(0.6, 0.6))
        with pytest.raises(ValueError):
            ExactDistribution(support=(1,), probs=(-1.0,))
        with pytest.raises(ValueError):
            ExactDistribution(support=(1, 2), probs=(1.0,))

    def test_from_weights_sorts_and_normalizes(self):
        dist = ExactDistribution.from_weights({3: 2.0, 1: 1.0, 2: 1.0})
        assert dist.support == (1, 2, 3)
        assert dist.probs == (0.25, 0.25, 0.5)
