"""Kernel tests.

Each reference value is produced by an oracle that shares no code with the
implementation: adaptive quadrature of the defining integral for Q, exact
rational recursion for binomial tails, and for the two-half-plane
probability plain 2D Monte Carlo, a 60-digit mpmath quadrature of its
Owen's-T form and the float Gauss-Legendre quadrature of its defining
integral.  The log-space binomial tail and that Gauss-Legendre quadrature
are themselves test oracles (tests/oracles.py): the bound tests compose them
by hand.  A 40-digit mpmath erfc is the oracle for Q's accuracy, and
scipy.special's compiled gammaln for the bits of the library's Cephes lgam
port.
"""

import itertools
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special

from mlbounds.errors import ValidationError
from mlbounds.numerics import (
    ChannelPoint,
    SnrConvention,
    _owens_t,
    angle_upper_bound,
    log_factorials,
    q_function,
    triplet_probability,
)
from oracles import binomial_tail, encode, named_code, triplet_probability_quadrature


def q_oracle(x: float) -> float:
    """Q(x) straight from its defining integral via adaptive quadrature."""
    val, _ = integrate.quad(
        lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi),
        x,
        math.inf,
        epsabs=1e-300,
        epsrel=1e-13,
    )
    return val


def binom_tail_oracle(p: Fraction, n: int, lo: int, hi: int) -> Fraction:
    """Literal recursive pmf evaluation in exact rational arithmetic:
    f(0) = (1-p)^n, f(m+1) = f(m) * (n-m)/(m+1) * p/(1-p)."""
    lo = max(0, lo)
    hi = min(n, hi)
    if lo > hi:
        return Fraction(0)
    term = (1 - p) ** n
    total = Fraction(0)
    for m in range(0, hi + 1):
        if m >= lo:
            total += term
        term = term * (n - m) * p / ((m + 1) * (1 - p))
    return total


class TestQFunction:
    def test_matches_quadrature_oracle(self):
        for x in np.linspace(0.0, 8.0, 33):
            ref = q_oracle(float(x))
            assert abs(float(q_function(x)) - ref) <= 1e-12 * ref

    def test_known_points(self):
        assert float(q_function(0.0)) == 0.5
        # complement symmetry
        for x in (0.3, 1.0, 2.7):
            assert math.isclose(
                float(q_function(-x)), 1.0 - float(q_function(x)), rel_tol=1e-14
            )

    def test_monotone_decreasing_and_underflow(self):
        xs = np.linspace(-5.0, 40.0, 200)
        qs = q_function(xs)
        assert np.all(np.diff(qs) <= 0)
        assert float(q_function(40.0)) == 0.0  # underflow-to-zero is the contract

    def test_vectorized(self):
        xs = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(
            q_function(xs), [float(q_function(v)) for v in xs], rtol=1e-15
        )


def q_mp(x) -> mpmath.mpf:
    """Q at the float argument the library hands erfc, t = x / sqrt(2),
    from a 40-digit mpmath erfc."""
    t = float(x) / math.sqrt(2.0)
    with mpmath.workdps(40):
        return mpmath.erfc(mpmath.mpf(t)) / 2


def assert_q_accurate(xs, got):
    """Each got value within 1e-15 relative of q_mp wherever the true Q is
    a normal float."""
    for x, g in zip(np.ravel(xs).tolist(), np.ravel(got).tolist()):
        want = q_mp(x)
        if want >= sys.float_info.min:
            assert abs(mpmath.mpf(g) - want) <= 1e-15 * want, (x, g, want)


class TestQAccuracy:
    """q_function against a 40-digit mpmath erfc, and its scalar and array
    paths against each other.  The suite's filterwarnings setting fails any
    input that raises a RuntimeWarning."""

    def test_within_1e15_of_mpmath(self):
        rng = np.random.default_rng(20261018)
        xs = np.concatenate([np.linspace(-40.0, 40.0, 8001), rng.uniform(-40.0, 40.0, 2000)])
        assert_q_accurate(xs, q_function(xs))

    @pytest.mark.parametrize(
        "x",
        [0.3, -2, np.float64(-1.7), np.array(2.5), np.arange(-3.0, 3.0).reshape(2, 3),
         np.arange(4).reshape(2, 2), np.zeros((0, 3))],
        ids=["float", "int", "float64", "0-d", "2-D", "2-D int", "empty"],
    )
    def test_return_types_and_shapes(self, x):
        got, ufunc = q_function(x), 0.5 * special.erfc(x / math.sqrt(2.0))
        assert type(got) is type(ufunc)
        assert np.shape(got) == np.shape(ufunc)
        assert_q_accurate(x, got)

    @pytest.mark.parametrize(
        "x,want",
        [(0.0, 0.5), (-0.0, 0.5), (5e-324, 0.5), (math.inf, 0.0), (1e300, 0.0),
         (-math.inf, 1.0), (-1e300, 1.0), (math.nan, math.nan)],
    )
    def test_edge_inputs(self, x, want):
        for got in (q_function(x), q_function(np.array([x]))[0]):
            assert got == want or (math.isnan(want) and math.isnan(got))

    @pytest.mark.xfail(
        strict=True,
        reason="q_function computes Q(x) as erfc(x/sqrt(2)), so rounding x/sqrt(2) costs "
        "up to about x^2 * 2^-53 relative (ROADMAP Known limits)",
    )
    @pytest.mark.parametrize("x", [20.0, 30.0, 35.0])
    def test_large_x_within_1e14_of_q_of_the_float_x(self, x):
        # the checks above take erfc of the rounded x/sqrt(2); this one takes
        # Q of x itself, from a 60-digit mpmath erfc
        with mpmath.workdps(60):
            want = mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2
        assert abs(mpmath.mpf(float(q_function(x))) - want) <= 1e-14 * want

    @given(st.floats(allow_nan=False))
    def test_scalar_and_array_bits_agree(self, x):
        scalar = q_function(x)
        assert q_function(np.float64(x)) == scalar
        assert q_function(np.array(x)) == scalar
        assert q_function(np.array([x, x]))[1] == scalar


class TestCephesPort:
    """log_factorials against scipy.special.gammaln, which runs the same
    Cephes lgam in compiled code: equal bits, not closeness."""

    @pytest.mark.parametrize("n", [0, 1, 11, 12, 13, 999, 1000, 1001, 70000])
    def test_log_factorial_bits(self, n):
        got = log_factorials(n)
        assert got.shape == (n + 1,)
        assert np.array_equal(got, special.gammaln(np.arange(n + 1) + 1.0))

    def test_log_factorials_refuse_negative_n(self):
        with pytest.raises(ValidationError, match="n >= 0"):
            log_factorials(-1)


class TestBinomialTail:
    def test_matches_rational_recursion(self):
        ps = [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(97, 100)]
        rng = np.random.default_rng(20240811)
        for n in (1, 2, 5, 17, 33, 64):
            for p in ps:
                windows = [(0, n), (0, 0), (n, n), (1, n), (0, n - 1), (-2, n + 3)]
                for _ in range(4):
                    a, b = sorted(rng.integers(0, n + 1, size=2).tolist())
                    windows.append((int(a), int(b)))
                for lo, hi in windows:
                    ref = binom_tail_oracle(p, n, lo, hi)
                    got = binomial_tail(float(p), n, lo, hi)
                    if ref == 0:
                        assert got == 0.0
                    else:
                        assert abs(got - float(ref)) <= 1e-12 * float(ref)

    def test_hand_case(self):
        # sum_{m=2}^{3} C(4,m) 0.1^m 0.9^(4-m) = 0.0486 + 0.0036
        assert math.isclose(binomial_tail(0.1, 4, 2, 3), 0.0522, rel_tol=1e-12)

    def test_empty_and_full_windows(self):
        assert binomial_tail(0.3, 12, 13, 12) == 0.0
        assert math.isclose(binomial_tail(0.3, 12, 0, 12), 1.0, rel_tol=1e-14)
        # complement of "no errors": 1 - (1-p)^n
        for p, n in ((0.01, 60), (0.2, 7)):
            ref = -math.expm1(n * math.log1p(-p))
            assert math.isclose(binomial_tail(p, n, 1, n), ref, rel_tol=1e-12)

    def test_degenerate_lengths(self):
        for n_total in (0, -1, -5):
            assert binomial_tail(0.4, n_total, 0, 3) == 1.0
            assert binomial_tail(0.4, n_total, -2, 0) == 1.0
            assert binomial_tail(0.4, n_total, 1, 3) == 0.0
            assert binomial_tail(0.4, n_total, -4, -1) == 0.0

    def test_edge_probabilities(self):
        assert binomial_tail(0.0, 9, 0, 4) == 1.0
        assert binomial_tail(0.0, 9, 1, 9) == 0.0
        assert binomial_tail(1.0, 9, 5, 9) == 1.0
        assert binomial_tail(1.0, 9, 0, 8) == 0.0

    def test_split_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 64))
            p = float(rng.uniform(0.01, 0.99))
            lo, hi = sorted(rng.integers(0, n + 1, size=2).tolist())
            if lo == hi:
                continue
            mid = int(rng.integers(lo, hi))
            whole = binomial_tail(p, n, lo, hi)
            parts = binomial_tail(p, n, lo, mid) + binomial_tail(p, n, mid + 1, hi)
            assert math.isclose(whole, parts, rel_tol=1e-12)

    def test_monotone_in_upper_limit(self):
        vals = [binomial_tail(0.17, 40, 3, hi) for hi in range(3, 41)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_deep_tail_keeps_relative_accuracy(self):
        # all terms underflow a direct product path long before this
        ref = binom_tail_oracle(Fraction(1, 1000), 64, 40, 64)
        got = binomial_tail(0.001, 64, 40, 64)
        assert abs(got - float(ref)) <= 1e-12 * float(ref)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValidationError):
            binomial_tail(-0.1, 5, 0, 5)
        with pytest.raises(ValidationError):
            binomial_tail(1.5, 5, 0, 5)


class TestAngleUpperBound:
    def test_formula_and_cap(self):
        # d1 = d2 = n/2 sits exactly at the cap
        assert angle_upper_bound(5, 5, 10) == pytest.approx(math.pi / 2, rel=1e-15)
        # small distances push the raw sum past pi/2, the cap takes over
        assert angle_upper_bound(1, 1, 100) == math.pi / 2
        # beyond half the length the raw sum applies
        got = angle_upper_bound(8, 9, 10)
        want = math.acos(math.sqrt(0.8)) + math.acos(math.sqrt(0.9))
        assert got == pytest.approx(want, rel=1e-15)
        assert got < math.pi / 2
        assert angle_upper_bound(10, 10, 10) == 0.0

    def test_symmetric_and_monotone(self):
        assert angle_upper_bound(3, 7, 12) == angle_upper_bound(7, 3, 12)
        vals = [angle_upper_bound(d, d, 16) for d in range(8, 17)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            angle_upper_bound(0, 3, 8)
        with pytest.raises(ValidationError):
            angle_upper_bound(3, 9, 8)

    @pytest.mark.parametrize(
        "name,dual",
        [("hamming_7_4", False), ("toy_10_5", False), ("bch_15_7", False),
         ("bch_31_21", True), ("bch_31_26", True)],
        ids=["hamming_7_4", "toy_10_5", "bch_15_7", "dual_31_21", "dual_31_26"],
    )
    def test_caps_every_equal_weight_codeword_pair(self, name, dual):
        code = named_code(name).dual() if dual else named_code(name)
        # brute-force oracle for the tight theta policy: the decision
        # half-planes of weight-d codewords a, b have normals at angle
        # arccos(|a & b| / d), and the cap must cover the widest such pair
        classes: dict[int, list[int]] = {}
        for msg in range(1, 1 << code.k):
            word = encode(code, msg)
            classes.setdefault(word.bit_count(), []).append(word)
        checked = 0
        for d, words in classes.items():
            if len(words) < 2:
                continue
            overlap = min((a & b).bit_count() for a, b in itertools.combinations(words, 2))
            assert math.acos(overlap / d) <= angle_upper_bound(d, d, code.n)
            checked += 1
        assert checked


class TestTripletProbability:
    def test_right_angle_closed_form(self):
        for d in (1, 4, 10):
            for sigma in (0.5, 1.0, 2.0):
                q = float(q_function(math.sqrt(d) / sigma))
                want = 2.0 * q - q * q
                got = triplet_probability(d, math.pi / 2, sigma)
                assert abs(got - want) <= 1e-10 * want

    def test_monte_carlo_oracle(self):
        # union of two half-planes at distance sqrt(d), normals theta apart
        d, theta, sigma = 3, math.pi / 3, 0.8
        rng = np.random.default_rng(42)
        samples = rng.normal(0.0, sigma, size=(10_000_000, 2))
        thresh = math.sqrt(d)
        hit1 = samples[:, 0] >= thresh
        hit2 = samples[:, 0] * math.cos(theta) + samples[:, 1] * math.sin(theta) >= thresh
        p_hat = float(np.mean(hit1 | hit2))
        se = math.sqrt(p_hat * (1.0 - p_hat) / samples.shape[0])
        got = triplet_probability(d, theta, sigma)
        assert abs(got - p_hat) <= 3.0 * se

    def test_monotone_in_theta(self):
        for d, sigma in ((2, 1.0), (6, 0.7)):
            thetas = np.linspace(0.05, math.pi / 2, 30)
            vals = triplet_probability(d, thetas, sigma).tolist()
            assert all(b >= a - 1e-13 * a for a, b in zip(vals, vals[1:]))

    def test_bracketed_by_q_and_2q(self):
        for d, sigma, theta in ((1, 1.0, 0.3), (5, 0.6, 1.2), (9, 2.0, math.pi / 2)):
            q = float(q_function(math.sqrt(d) / sigma))
            got = triplet_probability(d, theta, sigma)
            assert q <= got <= 2.0 * q

    def test_geometry_validation(self):
        with pytest.raises(ValidationError):
            triplet_probability(0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            triplet_probability(np.array([3, 0]), 1.0, 1.0)
        with pytest.raises(ValidationError):
            triplet_probability(2.5, 1.0, 1.0)
        with pytest.raises(ValidationError):
            triplet_probability(2, 0.0, 1.0)
        with pytest.raises(ValidationError):
            triplet_probability(2, math.pi / 2 + 1e-9, 1.0)
        with pytest.raises(ValidationError):
            triplet_probability(2, np.array([1.0, math.nan]), 1.0)
        with pytest.raises(ValidationError):
            triplet_probability(2, 1.0, 0.0)

    def test_extreme_sigma(self):
        # h*h overflows: the mass is 0; h near 0: Q(0) + 2 T(0, a) = 1/2 + theta/(2 pi)
        assert triplet_probability(4, 1.0, 1e-200) == 0.0
        assert abs(triplet_probability(4, 1.0, 1e300) - (0.5 + 1.0 / (2.0 * math.pi))) <= 1e-15

    def test_vectorized_matches_elementwise(self):
        ds = np.array([3, 7, 40, 999])
        thetas = np.array([0.2, 1.0, math.pi / 2, 0.06])
        together = triplet_probability(ds, thetas, 1.3)
        one_by_one = [float(triplet_probability(d, t, 1.3)) for d, t in zip(ds, thetas)]
        assert together.tolist() == one_by_one

    def test_matches_gauss_legendre_oracle(self):
        # the float quadrature of the defining integral agrees wherever its
        # 1e-12 absolute tolerance is small against the value
        for d, theta, sigma in ((1, 0.3, 1.0), (4, 1.1, 0.9), (9, 0.7, 2.0), (12, 1.4, 1.5)):
            got = float(triplet_probability(d, theta, sigma))
            want = triplet_probability_quadrature(d, theta, sigma)
            assert abs(got - want) <= 1e-11 * want


def owens_t_mp(h: mpmath.mpf, a: mpmath.mpf) -> mpmath.mpf:
    """Owen's T at the working precision,

        T(h, a) = exp(-h^2/2) / (2 pi) int_0^a exp(-h^2 x^2/2) / (1+x^2) dx.

    With exp(-h^2/2) taken out of the integral, its integrand falls off on
    the scale 1/h, so the interval is split at 4/h and 16/h before
    Gauss-Legendre quadrature.
    """
    cuts = sorted({mpmath.mpf(0), a, min(a, 4 / h), min(a, 16 / h)})
    integral = mpmath.quad(
        lambda x: mpmath.exp(-h * h * x * x / 2) / (1 + x * x), cuts, method="gauss-legendre"
    )
    return integral * mpmath.exp(-h * h / 2) / (2 * mpmath.pi)


def mass_mpmath(d: int, theta: float, sigma: float) -> float:
    """Two-half-plane mass at 60 digits: erfc(H/sqrt2)/2 + 2 T(H, tan(theta/2))
    with H = sqrt(d)/sigma."""
    with mpmath.workdps(60):
        h = mpmath.sqrt(d) / mpmath.mpf(sigma)
        half_plane = mpmath.erfc(h / mpmath.sqrt(2)) / 2
        return float(half_plane + 2 * owens_t_mp(h, mpmath.tan(mpmath.mpf(theta) / 2)))


class TestTripletProbabilityMpmath:
    """Owen's-T mass against a 60-digit reference at the tight angle cap
    2 arccos(sqrt(d/n)), d > n/2, and on an (h, a) grid: relative error
    within 1e-13 down to 1e-250 (h up to 30)."""

    # (n, d, sigma) deep in the tail; (1000, 999, 2.5) is where the former
    # adaptive quadrature fell 6.8e-4 relative below the true value
    DEEP = [(1000, 999, 2.5), (1000, 600, 1.0), (2000, 1999, 1.5), (2000, 1200, 1.5),
            (500, 499, 0.9), (64, 63, 0.5), (31, 17, 0.4), (15, 8, 0.3)]

    @staticmethod
    def check(n, d, sigma):
        theta = float(angle_upper_bound(d, d, n))
        assert 0.0 < theta < math.pi / 2
        got = float(triplet_probability(d, theta, sigma))
        want = mass_mpmath(d, theta, sigma)
        assert want >= 1e-250
        assert abs(got - want) <= 1e-13 * want, (n, d, sigma, got, want)

    @pytest.mark.parametrize("n,d,sigma", DEEP)
    def test_deep_tail(self, n, d, sigma):
        self.check(n, d, sigma)

    def test_grid_over_h_and_a(self):
        # h from 0.05 to 11 (mass above 1e-30), and the band 3.3 < h < 3.45
        # where scipy's owens_t changed method and fell up to 2.1e-13 below
        # the value (the last three points)
        wide = itertools.product(np.geomspace(0.05, 11.0, 15), (0.01, 0.1, 0.35, 0.6, 0.8775, 1.0))
        band = itertools.product(np.linspace(3.3, 3.45, 13), (0.6, 0.85, 0.8775, 0.898))
        d = 9
        for h, a in [*wide, *band, (3.37625, 0.8775), (3.3605, 0.898), (3.39, 0.85)]:
            theta, sigma = 2.0 * math.atan(a), math.sqrt(d) / float(h)
            got = float(triplet_probability(d, theta, sigma))
            want = mass_mpmath(d, theta, sigma)
            assert abs(got - want) <= 1e-13 * want, (h, a, got, want)

    def test_random_cases(self):
        rng = np.random.default_rng(20260)
        sigmas = (1.5, 2.0, 2.5, 4.0)  # sqrt(2000)/1.5 keeps every value above 1e-250
        for case in range(200):
            n = int(rng.integers(3, 2001))
            d = int(rng.integers(n // 2 + 1, n))
            self.check(n, d, sigmas[case % len(sigmas)])


class TestOwensT:
    """The Gauss-Legendre Owen's T against 60 digits wherever T is a normal
    float: rounding h*h in exp(-h^2/2) alone costs up to (h^2/2) 2^-53,
    7.6e-14 at h = 37."""

    def test_relative_accuracy_to_h_37(self):
        hs = np.concatenate([np.geomspace(0.05, 37.0, 40), np.linspace(3.3, 3.45, 4)])
        for h, a in itertools.product(hs.tolist(), (0.01, 0.3, 0.8775, 1.0)):
            got = float(_owens_t(np.float64(h), np.float64(a)))
            with mpmath.workdps(60):
                want = owens_t_mp(mpmath.mpf(h), mpmath.mpf(a))
                assert abs(got - want) <= 1e-13 * want, (h, a, got, want)


class TestChannelPoint:
    def test_crossover_consistency(self):
        pt = ChannelPoint.from_snr_db(0.8, SnrConvention.SIGMA)
        assert pt.p_b == pytest.approx(float(q_function(1.25)), rel=1e-15)
        assert 0.0 < pt.p_b < 0.5
        assert pt.snr_convention is SnrConvention.SIGMA

    def test_ebn0_mapping(self):
        # rate 1/2 at 0 dB lands exactly at sigma = 1
        pt = ChannelPoint.from_snr_db(0.0, SnrConvention.EBN0_DB, rate=0.5)
        assert pt.sigma == pytest.approx(1.0, rel=1e-15)
        # higher rate means less energy per symbol is needed, so sigma shrinks
        hi = ChannelPoint.from_snr_db(0.0, SnrConvention.EBN0_DB, rate=0.9)
        assert hi.sigma < 1.0

    def test_esn0_mapping(self):
        pt = ChannelPoint.from_snr_db(3.0, SnrConvention.ESN0_DB)
        assert pt.sigma == pytest.approx(math.sqrt(1.0 / (2.0 * 10 ** 0.3)), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ChannelPoint.from_snr_db(0.0, SnrConvention.SIGMA)
        with pytest.raises(ValidationError):
            ChannelPoint.from_snr_db(1.0, SnrConvention.EBN0_DB, rate=None)
        with pytest.raises(ValidationError):
            ChannelPoint.from_snr_db(1.0, SnrConvention.EBN0_DB, rate=1.5)
        # 10^(x/10) overflows above about 3082 dB and is 0 below about -3240 dB
        for snr_db in (3100.0, -3300.0, math.nan):
            with pytest.raises(ValidationError, match="out of range"):
                ChannelPoint.from_snr_db(snr_db, SnrConvention.ESN0_DB)
