"""Unit tests for the scalar kernels.

Expected values marked "frozen" were produced by independent oracles before
this module was written: 50-digit mpmath evaluation for the Mills ratio,
adaptive quadrature cross-checked against 1e7-sample rejection Monte Carlo
for the mixture expectation, and plain Monte Carlo for the quadrature rule.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erfcx, ndtr

from execsched.kernels import (
    Gaussian,
    MixtureRegimeError,
    _lognormal_shift_conditional,
    _mills_g,
    _mills_psi_second,
    _mixture_expectation_gh,
    gauss_hermite,
    mills_psi,
    mills_psi_derivs,
    mills_psi_prime,
    nln_mixture_expectation,
)
from support import (
    mixture_ratio_oracle,
    psi_prime_oracle,
    psi_second_oracle,
    truncated_mean_positive,
)


class TestMillsPsi:
    def test_at_zero(self):
        assert mills_psi(0.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)

    def test_right_tail_pins_to_u(self):
        # the true gap phi(10)/Phi(10) ~ 7.7e-23 is positive but far below
        # the spacing of doubles near 10, so the sum rounds to exactly 10
        gap = mills_psi(10.0) - 10.0
        assert 0.0 <= gap < 1e-20
        assert 0.0 < _mills_g(10.0) < 1e-20

    def test_deep_left_tail_frozen(self):
        # mpmath (50 digits): psi(-30) = 0.033259667433677...
        assert mills_psi(-30.0) == pytest.approx(0.03325966743367704, rel=1e-12)
        assert 0.0 < mills_psi(-30.0) < 0.04

    def test_deep_left_tail_matches_asymptotic(self):
        # The two-term expansion phi/Phi ~ -u - 1/u itself carries ~2.5e-6
        # relative error at u = -30, so that is the agreement floor.
        u = -30.0
        assert _mills_g(u) == pytest.approx(-u - 1.0 / u, rel=3e-6)

    def test_branch_is_seamless(self):
        # Values straddling the asymptotic-series switch at u = -150 must
        # line up; a jump there would leave a kink in the second differences.
        u = np.linspace(-151.0, -149.0, 201)
        vals = mills_psi(u)
        assert np.all(np.diff(vals) > 0)
        second = np.diff(vals, 2)
        assert np.max(np.abs(second)) < 1e-9

    def test_underflow_region(self):
        # Direct phi/Phi is 0/0 here; the log-space branch must survive.
        v = mills_psi(-300.0)
        assert 0.0 < v < 1.0 / 299.0

    def test_vector_matches_scalar(self):
        u = np.array([-40.0, -8.0, -1.0, 0.0, 3.0, 40.0])
        np.testing.assert_allclose(mills_psi(u), [mills_psi(x) for x in u], rtol=1e-14)

    def test_rejects_non_finite(self):
        # psi' and psi'' are views of mills_psi_derivs, so they raise as psi does
        for f in (mills_psi, mills_psi_prime, _mills_psi_second):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="finite"):
                    f(bad)
                with pytest.raises(ValueError, match="finite"):
                    f(np.array([1.0, bad]))

    @given(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0))
    def test_monotone_nondecreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert mills_psi(lo) <= mills_psi(hi) + 1e-15

    @given(st.floats(-40.0, 40.0))
    def test_strictly_positive(self, u):
        assert mills_psi(u) > 0.0

    def test_derivative_against_finite_differences(self):
        # h trades central-difference truncation against roundoff in psi;
        # 1e-5 keeps both below ~1e-7 relative over this range
        h = 1e-5
        for u in (-12.0, -3.0, 0.0, 1.5, 6.0):
            fd = (mills_psi(u + h) - mills_psi(u - h)) / (2.0 * h)
            assert mills_psi_prime(u) == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_derivative_in_unit_interval(self):
        u = np.linspace(-35.0, 35.0, 500)
        d = mills_psi_prime(u)
        assert np.all(d > 0.0)
        # the open bound saturates to 1.0 in doubles once u is a few units
        # positive, so strictness is only checkable below that
        assert np.all(d <= 1.0)
        assert np.all(d[u <= 5.0] < 1.0)

    def test_second_derivative_against_finite_differences(self):
        h = 1e-5
        for u in (-6.0, -1.0, 0.0, 2.0):
            fd = (mills_psi_prime(u + h) - mills_psi_prime(u - h)) / (2.0 * h)
            assert _mills_psi_second(u) == pytest.approx(fd, rel=1e-6, abs=1e-10)


def _two_branch_g(u):
    """G = phi/Phi on two branches: sqrt(2/pi)/erfcx(-u/sqrt 2) where u < 0
    and the direct quotient phi(u)/Phi(u) elsewhere, the oracle of the
    one-formula kernel."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        left = math.sqrt(2.0 / math.pi) / erfcx(-u / math.sqrt(2.0))
        right = np.exp(-0.5 * np.square(u)) / math.sqrt(2.0 * math.pi) / ndtr(u)
    out = np.where(u < 0.0, left, right)
    return out if out.ndim else float(out)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _assert_matches_two_branch(u):
    """The one-formula G against the two-branch oracle, region by region.

    The left branch is the same expression, so u < 0 matches bit for bit.
    For u >= 0, erfcx(-x) = 2e^{x^2} - erfcx(x) carries the rounding of
    e^{x^2}, which grows with x^2: 1.5e-14 relative up to u = 10 and 1.7e-13
    up to 30, measured.  Past u ~ 37.7 that term overflows and G is exactly
    0, where the direct quotient is a subnormal; both lie within 1e-300 of
    each other beyond u = 37.  Only NaN in gives NaN out.
    """
    u = np.asarray(u, dtype=float)
    got = np.asarray(_mills_g(u))
    want = np.asarray(_two_branch_g(u))
    assert got.shape == u.shape
    left = u < 0.0
    assert np.array_equal(_bits(got[left]), _bits(want[left]))
    mid = (u >= 0.0) & (u <= 30.0)
    assert np.all(np.abs(got[mid] - want[mid]) <= 2e-13 * want[mid])
    tail = (u > 30.0) & (u <= 37.0)
    assert np.all(np.abs(got[tail] - want[tail]) <= 1e-12 * want[tail])
    far = u > 37.0
    assert np.all(got[far] >= 0.0)
    assert np.all(np.abs(got[far] - want[far]) <= 1e-300)
    assert np.all(got[u >= 39.0] == 0.0)
    assert np.array_equal(np.isnan(got), np.isnan(u))


_ANY_FLOATS = arrays(
    np.float64,
    st.integers(0, 60),
    elements=st.one_of(st.floats(-50.0, 50.0), st.floats(width=64)),
)
_FINITE_FLOATS = arrays(
    np.float64,
    st.integers(0, 60),
    elements=st.one_of(st.floats(-400.0, 60.0), st.floats(allow_nan=False, allow_infinity=False)),
)


class TestMaskedKernel:
    @given(_ANY_FLOATS)
    @settings(max_examples=300)
    def test_matches_two_branch_formula_bit_for_bit(self, u):
        # where the oracle takes the same erfcx branch
        got, want = _mills_g(u), _two_branch_g(u)
        assert np.array_equal(_bits(got[u < 0.0]), _bits(want[u < 0.0]))

    @given(_ANY_FLOATS)
    @settings(max_examples=300)
    def test_matches_two_branch_formula_within_tolerance(self, u):
        _assert_matches_two_branch(u)

    @pytest.mark.parametrize("u", [-1e300, -200.0, -150.0, -1.0, -0.0, 0.0, 1e-300, 5.0, 40.0])
    def test_scalars_match_two_branch_formula(self, u):
        assert type(_mills_g(u)) is float
        _assert_matches_two_branch(u)

    def test_mixed_shapes(self):
        u = np.linspace(-30.0, 30.0, 24).reshape(2, 3, 4)
        assert _mills_g(u).shape == (2, 3, 4)
        _assert_matches_two_branch(u)

    def test_dense_sweep_of_the_right_half(self):
        _assert_matches_two_branch(np.linspace(0.0, 45.0, 450_001))

    def test_zero_past_the_overflow_of_erfcx(self):
        u = np.array([37.7, 38.0, 39.0, 1e3, 1e300, np.finfo(float).max, np.inf])
        assert np.array_equal(_bits(_mills_g(u)), _bits(np.zeros(u.size)))
        assert _mills_g(37.0) > 0.0

    def test_never_nan_for_finite_input(self):
        big = np.finfo(float).max
        u = np.concatenate([np.linspace(-1.0, 1.0, 10_001) * big, np.geomspace(1e-320, 1e308, 10_001)])
        u = np.concatenate([u, -u, [5e-324, big, -big]])
        assert not np.any(np.isnan(_mills_g(u)))


class TestFusedDerivatives:
    @given(_FINITE_FLOATS)
    @settings(max_examples=300)
    def test_match_separate_calls_bit_for_bit(self, u):
        # psi' and psi'' against their plain expressions, which the in-place
        # buffers must reproduce; |u| near the float limit overflows u*G in
        # both forms alike
        with np.errstate(over="ignore", invalid="ignore"):
            p0, d1, d2 = mills_psi_derivs(u)
            assert np.array_equal(_bits(p0), _bits(mills_psi(u)))
            assert np.array_equal(_bits(d1), _bits(psi_prime_oracle(u)))
            assert np.array_equal(_bits(d2), _bits(psi_second_oracle(u)))
            assert np.array_equal(_bits(mills_psi_prime(u)), _bits(d1))
            assert np.array_equal(_bits(_mills_psi_second(u)), _bits(d2))
            none, e1, e2 = mills_psi_derivs(u, with_psi=False)
            assert none is None
            assert np.array_equal(_bits(e1), _bits(d1))
            assert np.array_equal(_bits(e2), _bits(d2))

    @staticmethod
    def _stage_tensor():
        # the shape _Penultimate._tensor builds: a per-(element, price node)
        # base plus a per-node slope times the volume nodes
        rng = np.random.default_rng(7)
        base = rng.normal(0.0, 20.0, (4, 30))
        slope = rng.normal(0.0, 3.0, 30)
        return base[:, :, None] + (slope[:, None] * gauss_hermite(8).nodes)[None, :, :]

    @pytest.mark.parametrize(
        "case",
        ["series_branch", "erfcx_overflow", "mixed", "transposed", "broadcast"],
    )
    def test_arrays_match_separate_calls_and_leave_the_input(self, case):
        series = np.concatenate([np.linspace(-400.0, -150.0, 51), [-150.5, -149.5]])
        overflow = np.linspace(37.0, 60.0, 47)
        u = {
            "series_branch": series,
            "erfcx_overflow": overflow,
            "mixed": np.concatenate([series, overflow, np.linspace(-30.0, 30.0, 61)]),
            # non-contiguous
            "transposed": self._stage_tensor().transpose(2, 0, 1)[:, :, ::3],
            # zero strides, read-only
            "broadcast": np.broadcast_to(self._stage_tensor()[:, :, :1], (4, 30, 8)),
        }[case]
        before = u.copy()
        p0, d1, d2 = mills_psi_derivs(u)
        assert np.array_equal(_bits(u), _bits(before))
        assert all(a.shape == u.shape for a in (p0, d1, d2))
        assert np.array_equal(_bits(p0), _bits(mills_psi(u)))
        assert np.array_equal(_bits(d1), _bits(psi_prime_oracle(u)))
        assert np.array_equal(_bits(d2), _bits(psi_second_oracle(u)))
        # and element for element the scalar call's
        scalar = np.array([mills_psi_derivs(float(v)) for v in u.ravel()])
        assert np.array_equal(_bits(np.stack([p0, d1, d2], axis=-1).reshape(-1, 3)), _bits(scalar))
        if case == "erfcx_overflow":
            assert np.all(p0[overflow > 37.7] == overflow[overflow > 37.7])

    def test_scalar_in_scalar_out(self):
        p0, d1, d2 = mills_psi_derivs(-3.0)
        assert all(isinstance(v, float) for v in (p0, d1, d2))
        assert p0 == mills_psi(-3.0)
        assert d1 == psi_prime_oracle(-3.0) and d2 == psi_second_oracle(-3.0)
        assert mills_psi_prime(-3.0) == d1 and _mills_psi_second(-3.0) == d2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mills_psi_derivs(np.array([0.0, float("nan")]))
        with pytest.raises(ValueError):
            mills_psi_derivs(np.array([0.0, float("nan")]), with_psi=False)


class TestTruncatedMeanPositive:
    def test_standard_normal(self):
        assert truncated_mean_positive(Gaussian(0.0, 1.0)) == pytest.approx(
            0.7978845608028654, rel=1e-15
        )

    def test_scale_only(self):
        assert truncated_mean_positive(Gaussian(0.0, 5.0)) == pytest.approx(
            5.0 * 0.7978845608028654, rel=1e-15
        )

    def test_unit_mean_frozen(self):
        # frozen: 1 + phi(1)/Phi(1), MC-verified (1e7 rejection samples, 0.2 SE)
        assert truncated_mean_positive(Gaussian(1.0, 1.0)) == pytest.approx(
            1.2875999709391784, rel=1e-12
        )

    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            Gaussian(0.0, -1.0)
        with pytest.raises(ValueError):
            Gaussian(float("inf"), 1.0)

    @given(st.floats(-50.0, 50.0), st.floats(1e-6, 1e6))
    @example(1.599907565952151, 1e-6)  # sigma * (mu / sigma) rounds below mu
    def test_dominates_mean_and_zero(self, mu, sigma):
        val = truncated_mean_positive(Gaussian(mu, sigma))
        assert val >= max(mu, 0.0)

    @given(
        st.floats(-5.0, 5.0),
        st.floats(0.01, 10.0),
        st.floats(0.001, 1000.0),
    )
    def test_positive_homogeneity(self, mu, sigma, c):
        base = truncated_mean_positive(Gaussian(mu, sigma))
        scaled = truncated_mean_positive(Gaussian(c * mu, c * sigma))
        assert scaled == pytest.approx(c * base, rel=1e-12)


class TestGaussHermite:
    def test_one_point_rule(self):
        rule = gauss_hermite(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_polynomial_exactness(self):
        rule = gauss_hermite(20)
        assert rule.expect(lambda z: z * z) == pytest.approx(1.0, abs=1e-12)
        # degree 2n-1 = 39 is still exact; E[z^6] = 15 for a standard normal
        assert rule.expect(lambda z: z**6) == pytest.approx(15.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 64, 128])
    def test_rule_invariants(self, n):
        rule = gauss_hermite(n)
        assert len(rule.nodes) == len(rule.weights) == n
        assert np.sum(rule.weights) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
        np.testing.assert_allclose(np.sort(rule.nodes), -np.sort(-rule.nodes)[::-1], atol=1e-12)

    @pytest.mark.parametrize("bad", [0, -1, 129, 2.5, "40"])
    def test_rejects_out_of_range_order(self, bad):
        with pytest.raises(ValueError):
            gauss_hermite(bad)

    def test_psi_expectation_against_monte_carlo(self):
        # frozen MC oracle: mean of psi over 1e7 draws from N(0.5, 1) with
        # seed 424242 gave 1.131254087501 +- 1.690e-4 (GH40 sat at 1.22 SE)
        rule = gauss_hermite(40)
        val = rule.expect(mills_psi, mu=0.5, sigma=1.0)
        assert abs(val - 1.131254087501) <= 3.0 * 1.690e-4


class TestMixtureExpectation:
    # frozen by adaptive quadrature, each cross-checked against a 1e7-sample
    # rejection Monte Carlo estimate (all within 3 standard errors) and, for
    # the last case, 50-digit arithmetic
    FROZEN = [
        ((0.0, 0.2), (1.0, 0.5), -0.8, 0.535707056331),
        ((0.1, 0.3), (2.0, 1.0), -1.0, 1.652654312179),
        ((-0.05, 0.15), (1.5, 0.8), -2.0, 0.524241972987),
        (
            (0.30153067997169514, 0.5578900584374132),
            (2.948607673329108, 0.35214445128526084),
            -1.1919588321033165,
            3.5324854076948386,
        ),
    ]

    @pytest.mark.parametrize("x,y,k,expected", FROZEN)
    def test_frozen_values(self, x, y, k, expected):
        val = nln_mixture_expectation(Gaussian(*x), Gaussian(*y), k)
        assert val == pytest.approx(expected, rel=1e-9)

    def test_degenerate_collapse(self):
        val = nln_mixture_expectation(Gaussian(0.0, 1e-9), Gaussian(1.0, 1e-9), -0.5)
        assert val == pytest.approx(0.5, rel=1e-6)

    def test_rejects_nonnegative_k(self):
        for k in (0.0, 0.25):
            with pytest.raises(MixtureRegimeError):
                nln_mixture_expectation(Gaussian(0.0, 0.2), Gaussian(1.0, 0.5), k)

    def test_vanishing_event_probability(self):
        with pytest.raises(ValueError, match="vanishing"):
            nln_mixture_expectation(Gaussian(0.0, 1e-3), Gaussian(1.0, 1e-3), -50.0)

    @given(
        st.floats(-0.5, 0.5),
        st.floats(0.05, 0.6),
        st.floats(0.2, 5.0),
        st.floats(0.1, 2.0),
        st.floats(-3.0, -0.1),
    )
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, mu_x, sig_x, mu_y, sig_y, k):
        val = nln_mixture_expectation(Gaussian(mu_x, sig_x), Gaussian(mu_y, sig_y), k)
        assert val >= 0.0

    def test_gh_variant_agrees_in_solver_regime(self):
        # sigma_x <= 0.3 is where the solvers live; the fixed-order rule must
        # track the adaptive kernel there
        for (mx, sx), (my, sy), k, _ in self.FROZEN[:3]:
            exact = nln_mixture_expectation(Gaussian(mx, sx), Gaussian(my, sy), k)
            gh = float(_mixture_expectation_gh(mx, sx, my, sy, k, order=64))
            assert gh == pytest.approx(exact, rel=1e-8)

    def test_gh_variant_broadcasts(self):
        my = np.array([1.0, 2.0])
        sy = np.array([0.5, 1.0])
        k = np.array([-0.8, -1.0])
        out = _mixture_expectation_gh(0.0, 0.2, my, sy, k)
        assert out.shape == (2,)
        assert np.array_equal(_bits(out), _bits(mixture_ratio_oracle(0.0, 0.2, my, sy, k)))
        single = _mixture_expectation_gh(0.0, 0.2, 2.0, 1.0, -1.0)
        assert out[1] == pytest.approx(float(single), rel=1e-14)


class TestLognormalShiftConditional:
    def test_frozen_gbm_degenerate_cases(self):
        # frozen: the sigma_Y = 0 stage premium at c = 1010, k = -1000 was
        # MC-verified with 1e7 rejection samples (2.06 SE and 1.91 SE)
        assert _lognormal_shift_conditional(0.0, 0.1, 1010.0, -1000.0) == pytest.approx(
            89.2407784991, rel=1e-9
        )
        assert _lognormal_shift_conditional(0.0, 0.3, 1010.0, -1000.0) == pytest.approx(
            297.8825316783, rel=1e-9
        )

    def test_agrees_with_mixture_in_small_sigma_y_limit(self):
        mix = nln_mixture_expectation(Gaussian(0.0, 0.1), Gaussian(1010.0, 1e-6), -1000.0)
        closed = _lognormal_shift_conditional(0.0, 0.1, 1010.0, -1000.0)
        assert mix == pytest.approx(closed, rel=1e-7)
