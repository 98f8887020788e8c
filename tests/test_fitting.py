import hashlib
import math

import numpy as np
import pytest

import phasefit.fitting as fitting
from phasefit import (
    almost_erlang,
    erlang_approximation,
    fit_two_moments,
    hyper_family,
    mean,
    minimal_states,
    sample_stats,
    sauer_chandy,
    simplest_hyper,
    variance,
)
from phasefit.errors import (
    DeterministicUnrepresentable,
    DomainError,
    InsufficientData,
    NegativeObservation,
    NonFiniteObservation,
    NonPositiveInput,
    PhasefitError,
    POutOfRange,
)

GRID_MU = (0.1, 1.0, 10.0)
GRID_CV2 = (0.05, 0.1, 0.25, 1 / 3, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0, 10.0, 100.0)


class TestMinimalStates:
    def test_examples(self):
        assert minimal_states(1.0, 0.4) == 3
        assert minimal_states(1.0, 1.0) == 1
        assert minimal_states(2.0, 1.0) == 4

    def test_cauchy_schwarz_feasibility(self):
        # mu^2/N <= sigma^2 must hold for N states and fail for N-1
        mu, sigma2 = 2.0, 1.0
        n = minimal_states(mu, sigma2)
        assert mu**2 / n <= sigma2
        assert mu**2 / (n - 1) > sigma2

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            minimal_states(0.0, 1.0)
        with pytest.raises(NonPositiveInput):
            minimal_states(1.0, 0.0)

    def test_refuses_more_than_max_stages(self):
        n = fitting.MAX_STAGES
        assert minimal_states(1.0, 1.0 / n) == n
        with pytest.raises(DomainError, match="1e\\+12"):
            minimal_states(1.0, 1e-12)


class TestAlmostErlang:
    def test_hand_values_mu1_var04(self):
        fit = almost_erlang(1.0, 0.4)
        assert fit.n_transient == 3
        assert fit.alpha_n == pytest.approx(math.sqrt(0.2) / 3, rel=1e-12)
        xs = [1 / r for r in fit.model.branches[0].rates]
        assert xs[0] == pytest.approx(xs[1], rel=1e-12)
        assert xs[0] == pytest.approx(1 / 3 - fit.alpha_n / math.sqrt(2), rel=1e-12)
        assert xs[2] == pytest.approx(1 / 3 + math.sqrt(2) * fit.alpha_n, rel=1e-12)
        assert math.fsum(xs) == pytest.approx(1.0, rel=1e-12)
        assert math.fsum(x * x for x in xs) == pytest.approx(0.4, rel=1e-12)

    def test_pure_erlang_when_ratio_integral(self):
        fit = almost_erlang(1.0, 0.5)
        assert fit.family == fitting.ERLANG
        assert fit.alpha_n == 0.0
        assert fit.model.branches[0].rates == (2.0, 2.0)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            almost_erlang(3.0, 9.0)


    def test_huge_mean_names_the_overflow(self):
        # N sigma^2 - mu^2 was inf - inf here, which gave a nan stage rate
        with pytest.raises(DomainError, match="second moment"):
            almost_erlang(1.5e154, 1.5e308)
        fit = almost_erlang(1e154, 5e307)
        assert variance(fit.model) == pytest.approx(5e307, rel=1e-12)


class TestSimplestHyper:
    def test_hand_values_cv2_4(self):
        fit = simplest_hyper(1.0, 4.0)
        assert fit.alpha_n == pytest.approx(0.4)
        b1, b2 = fit.model.branches
        assert b1.prob == pytest.approx(0.4)
        assert 1 / b1.rates[0] == pytest.approx(2.5)
        assert b2.instantaneous and b2.prob == pytest.approx(0.6)
        assert fit.achieved.second_moment == pytest.approx(5.0, rel=1e-12)

    def test_cv1_collapses_to_exponential(self):
        fit = simplest_hyper(1.0, 1.0)
        assert fit.family == fitting.EXPONENTIAL
        assert len(fit.model.branches) == 1
        assert fit.model.branches[0].rates == (1.0,)

    def test_scaled_case(self):
        fit = simplest_hyper(2.0, 16.0)
        assert fit.model.branches[0].prob == pytest.approx(0.4)
        assert 1 / fit.model.branches[0].rates[0] == pytest.approx(5.0)
        assert mean(fit.model) == pytest.approx(2.0, rel=1e-12)

    def test_low_variance_rejected(self):
        with pytest.raises(DomainError):
            simplest_hyper(1.0, 0.5)


class TestHyperFamily:
    def test_boundary_matches_simplest(self):
        # the last target once gave a second stage of rate 7.4e13, not the atom
        for mu, sigma2 in [(1.0, 1.1), (1.0, 2.0), (1.0, 4.0), (1.0, 100.0),
                           (0.10371022586584734, 0.010765329385693809)]:
            a = hyper_family(mu, sigma2, 2.0 / (1.0 + sigma2 / mu / mu))
            b = simplest_hyper(mu, sigma2)
            assert a.model == b.model, (mu, sigma2)
            assert a.n_transient == 1 and a.model.atom_weight > 0.0

    def test_interior_hand_values(self):
        fit = hyper_family(1.0, 4.0, 0.2)
        alpha = math.sqrt(0.2 * 0.8 * 1.5)
        assert fit.alpha_n == pytest.approx(alpha, rel=1e-12)
        b1, b2 = fit.model.branches
        assert 1 / b1.rates[0] == pytest.approx(1 + alpha / 0.2, rel=1e-12)
        assert 1 / b2.rates[0] == pytest.approx(1 - alpha / 0.8, rel=1e-12)
        assert mean(fit.model) == pytest.approx(1.0, rel=1e-12)
        assert variance(fit.model) == pytest.approx(4.0, rel=1e-12)

    def test_p_above_max_rejected(self):
        with pytest.raises(POutOfRange):
            hyper_family(1.0, 4.0, 0.5)


class TestFitTwoMoments:
    def test_exponential_case(self):
        fit = fit_two_moments(1.0, 1.0)
        assert fit.family == fitting.EXPONENTIAL
        assert fit.n_transient == 1
        assert fit.model.branches[0].rates == (1.0,)

    def test_erlang_case(self):
        fit = fit_two_moments(1.0, 0.25)
        assert fit.family == fitting.ERLANG
        assert fit.n_transient == 4
        assert fit.model.branches[0].rates == (4.0,) * 4

    def test_hyper_case(self):
        fit = fit_two_moments(1.0, 9.0)
        assert fit.family == fitting.SIMPLEST_HYPER
        assert fit.model.branches[0].prob == pytest.approx(0.2)
        assert 1 / fit.model.branches[0].rates[0] == pytest.approx(5.0)

    def test_deterministic_rejected(self):
        with pytest.raises(DeterministicUnrepresentable):
            fit_two_moments(1.0, 0.0)

    def test_unit_cv2_fits_an_exponential(self):
        # the dispatch and the families must agree on which side of Cv^2 = 1
        # a target lies, also when sigma2 / mu / mu misses 1 by an ulp
        rng = np.random.default_rng(12)
        for mu in 10.0 ** rng.uniform(-3, 3, size=2000):
            fit = fit_two_moments(float(mu), 1.0 * mu * mu)
            assert fit.family == fitting.EXPONENTIAL
            assert fit.model.branches[0].rates == pytest.approx((1 / mu,), rel=1e-15)

    @pytest.mark.parametrize("mu, sigma2", [
        (1e-200, 1e-300), (1e200, 1e300), (1.0, 1e-12),
        (1e-300, 1e-300), (1e-150, 1e-300), (1e150, 1e300), (1e100, 1e300),
    ])
    def test_extreme_targets_fit_exactly_or_refuse(self, mu, sigma2):
        try:
            fit = fit_two_moments(mu, sigma2)
        except PhasefitError:
            return
        assert mean(fit.model) == pytest.approx(mu, rel=1e-9)
        assert variance(fit.model) == pytest.approx(sigma2, rel=1e-9)

    def test_grid_exactness(self):
        for mu in GRID_MU:
            for cv2 in GRID_CV2:
                fit = fit_two_moments(mu, cv2 * mu * mu)
                assert mean(fit.model) == pytest.approx(mu, rel=1e-9)
                assert variance(fit.model) == pytest.approx(cv2 * mu * mu, rel=1e-9)

    def test_grid_minimality(self):
        for mu in GRID_MU:
            for cv2 in GRID_CV2:
                sigma2 = cv2 * mu * mu
                fit = fit_two_moments(mu, sigma2)
                if cv2 < 1.0:
                    n = fit.n_transient
                    assert n == math.ceil(mu * mu / sigma2 - 1e-12)
                    # one state fewer is infeasible by the Cauchy-Schwarz bound
                    assert mu * mu / (n - 1) > sigma2
                else:
                    assert fit.n_transient == 1

    def test_positivity_random_targets(self):
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            mu = float(rng.uniform(0.01, 100.0))
            cv2 = float(rng.uniform(1e-3, 1.0 - 1e-9))
            fit = fit_two_moments(mu, cv2 * mu * mu)
            assert all(r > 0 and math.isfinite(r)
                       for b in fit.model.branches for r in b.rates)

    def test_scale_equivariance(self):
        for c in (0.01, 7.0, 1000.0):
            for mu, sigma2 in ((1.0, 0.4), (1.0, 4.0), (2.0, 3.0)):
                base = fit_two_moments(mu, sigma2)
                scaled = fit_two_moments(c * mu, c * c * sigma2)
                assert len(base.model.branches) == len(scaled.model.branches)
                for b, s in zip(base.model.branches, scaled.model.branches):
                    assert s.prob == pytest.approx(b.prob, rel=1e-12)
                    for rb, rs in zip(b.rates, s.rates):
                        assert rs == pytest.approx(rb / c, rel=1e-9)

    def test_second_moment_bound(self):
        for mu in GRID_MU:
            for cv2 in GRID_CV2:
                fit = fit_two_moments(mu, cv2 * mu * mu)
                ratio = fit.achieved.second_moment / mu**2
                assert ratio >= 1 + 1 / fit.n_transient - 1e-9
                if fit.family == fitting.ERLANG:
                    assert ratio == pytest.approx(1 + 1 / fit.n_transient, rel=1e-9)


class TestSauerChandy:
    def test_hand_values(self):
        fit = sauer_chandy(1.0, 4.0)
        assert fit.alpha_n == pytest.approx((5 - math.sqrt(15)) / 10, rel=1e-12)
        b1, b2 = fit.model.branches
        assert 1 / b1.rates[0] == pytest.approx(4.4364917, rel=1e-6)
        assert 1 / b2.rates[0] == pytest.approx(0.5635083, rel=1e-6)
        assert mean(fit.model) == pytest.approx(1.0, rel=1e-12)
        assert fit.achieved.second_moment == pytest.approx(5.0, rel=1e-12)

    def test_not_minimal_versus_simplest(self):
        assert sauer_chandy(1.0, 4.0).n_transient == 2
        assert simplest_hyper(1.0, 4.0).n_transient == 1

    def test_scaling(self):
        fit = sauer_chandy(2.0, 16.0)
        assert 1 / fit.model.branches[0].rates[0] == pytest.approx(8.8729833, rel=1e-6)

    def test_low_variance_rejected(self):
        with pytest.raises(DomainError):
            sauer_chandy(1.0, 1.0)

    @pytest.mark.parametrize("cv2", [1.0 + 1e-15, 1.02, 4.0, 1e4, 1e12])
    def test_balanced_means_member_of_hyper_family(self, cv2):
        fit = sauer_chandy(3.0, cv2 * 9.0)
        (b1, b2) = fit.model.branches
        assert b1.prob / b1.rates[0] == pytest.approx(1.5, rel=1e-14)
        assert b2.prob / b2.rates[0] == pytest.approx(1.5, rel=1e-14)
        assert hyper_family(3.0, cv2 * 9.0, fit.alpha_n).model == fit.model


class TestErlangApproximation:
    def test_builds_erlang_n(self):
        fit = erlang_approximation(2.0, 4)
        assert fit.model.branches[0].rates == (2.0,) * 4
        assert variance(fit.model) == pytest.approx(1.0)

    def test_more_stages_than_max_refused(self):
        with pytest.raises(DomainError, match="more than"):
            erlang_approximation(1.0, fitting.MAX_STAGES + 1)

    def test_same_model_as_the_erlang_fit(self):
        # n/mu and 1/(mu/n) differ in the last bit here
        mu, n = 60.59217924429939, 49
        fit = fit_two_moments(mu, mu * mu / n)
        assert (fit.family, fit.n_transient) == (fitting.ERLANG, n)
        assert erlang_approximation(mu, n).model == fit.model


@pytest.mark.parametrize("fit, args, error, message", [
    (fit_two_moments, (1.0, -1.0), NonPositiveInput, "variance must be nonnegative"),
    (fit_two_moments, (1.0, math.nan), NonPositiveInput, "variance must be nonnegative"),
    (almost_erlang, (1.0, 1.0 - 1e-13), DomainError, "must be >= 2"),  # N = 1
    (erlang_approximation, (1.0, 0), NonPositiveInput, "stage count"),
], ids=["negative_variance", "nan_variance", "almost_erlang_of_one_stage", "no_stages"])
def test_targets_outside_a_construction_are_refused(fit, args, error, message):
    with pytest.raises(error, match=message):
        fit(*args)


@pytest.mark.parametrize("mu, sigma2", [(1e-10, 1e300), (1e-200, 1e100)])
@pytest.mark.parametrize("fit", [fit_two_moments, simplest_hyper, sauer_chandy, almost_erlang])
def test_cv2_past_float_range_names_itself(fit, mu, sigma2):
    with pytest.raises(DomainError, match="Cv\\^2"):
        fit(mu, sigma2)


class TestSampleStats:
    def test_constant_data(self):
        s = sample_stats([1, 1, 1, 1])
        assert s.mean == 1.0 and s.variance == 0.0

    def test_two_points(self):
        s = sample_stats([0.0, 2.0])
        assert s.mean == 1.0 and s.variance == 2.0

    def test_exponential_draws_recovered(self):
        rng = np.random.default_rng(9)
        xs = rng.exponential(1.0, size=1_000_000)
        s = sample_stats(xs)
        assert abs(s.mean - 1.0) <= 0.004
        assert abs(s.variance - 1.0) <= 0.015

    def test_errors(self):
        with pytest.raises(InsufficientData):
            sample_stats([1.0])
        with pytest.raises(NegativeObservation):
            sample_stats([1.0, -0.5])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteObservation):
                sample_stats([1.0, bad])


# Every FitResult field must stay byte-identical across versions: these are
# sha256 digests of the repr of each result, one per line. The Cv^2 and scale
# points come from a seeded PCG64 stream and Python's float pow.
def _golden_sweep(seed):
    rng = np.random.default_rng(seed)
    us = -2.0 + 4.0 * (np.arange(2000) + rng.uniform(0.05, 0.95, 2000)) / 2000
    scales = rng.uniform(-3.0, 3.0, 2000)
    return [(10.0 ** float(s), 10.0 ** float(u)) for s, u in zip(scales, us)]


def _golden_fits(name):
    if name == "fit_two_moments":
        pairs = _golden_sweep(19) + [(mu, c) for mu in GRID_MU for c in GRID_CV2]
        return [fit_two_moments(mu, c * mu * mu) for mu, c in pairs]
    if name == "erlang_approximation":
        return [erlang_approximation(mu, n) for mu in GRID_MU + (60.59217924429939,)
                for n in (1, 2, 3, 7, 49, 100, 1000)]
    pairs = [(mu, c) for mu, c in _golden_sweep(20) if c > 1.0]
    if name == "sauer_chandy":
        return [sauer_chandy(mu, c * mu * mu) for mu, c in pairs]
    # hyper_family: p at fractions of p_max = 2/(1+Cv^2), and p_max itself
    return [hyper_family(mu, c * mu * mu, f * 2.0 / (1.0 + c))
            for (mu, c), f in zip(pairs, [0.001, 0.3, 0.5, 0.999, 1.0] * len(pairs))]


@pytest.mark.parametrize("name, digest", [
    ("fit_two_moments",
     "922846786a07bd2c1b2c4f2707aa8aae6fb9ba7609ac7d741563ac9efa1f77f6"),
    ("erlang_approximation",
     "74548aa5876750ddaff70935278054e8a5af94a39c1a0377153fe815eaf6baed"),
    ("sauer_chandy",
     "8afb23e5401821f20af62f23c6efe5bbc414654488031bd773bd37558e4f7391"),
    ("hyper_family",
     "74310bd3ac2e328e6590850c2eaee40a77367b85bffb84a350fc41fb66f984ed"),
])
def test_fit_results_golden(name, digest):
    text = "\n".join(repr(r) for r in _golden_fits(name))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
