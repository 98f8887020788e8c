import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from phasefit import (
    Branch,
    MomentSummary,
    cdf,
    exponential_model,
    fit_two_moments,
    hyper_family,
    laplace,
    mean,
    min_second_moment,
    moment_k,
    new_model,
    pdf,
    sauer_chandy,
    second_moment,
    summarize,
    variance,
)
from phasefit.analysis import _nlogn_minus_logfact
from phasefit.errors import (
    DegenerateProbs,
    MomentOverflow,
    NegativeTime,
    NonPositiveInput,
    PoleEvaluation,
    ProbSumInvalid,
    StiffChain,
)


def random_model(rng, max_branches=3, max_len=3, rate_lo=0.5, rate_hi=5.0,
                 allow_instant=False):
    m = rng.integers(1, max_branches + 1)
    probs = rng.dirichlet(np.ones(m))
    branches = []
    for p in probs:
        lo = 0 if allow_instant else 1
        length = int(rng.integers(lo, max_len + 1))
        rates = tuple(rng.uniform(rate_lo, rate_hi, size=length))
        branches.append(Branch(p, rates))
    return new_model(branches)


class TestLaplace:
    def test_normalization_at_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = random_model(rng, allow_instant=True)
            assert abs(laplace(m, 0.0) - 1.0) <= 1e-12

    def test_single_exponential(self):
        assert laplace(exponential_model(2.0), 2.0) == pytest.approx(0.5)

    def test_two_branch_hand_value(self):
        m = new_model([Branch(0.5, (1.0,)), Branch(0.5, (2.0,))])
        assert laplace(m, 1.0).real == pytest.approx(0.5 * 0.5 + 0.5 * 2 / 3, rel=1e-14)

    def test_matches_numeric_transform_integral(self):
        m = new_model([Branch(0.5, (1.0,)), Branch(0.5, (2.0,))])
        s = 1.0
        val, _ = integrate.quad(lambda t: math.exp(-s * t) * pdf(m, t), 0, 60)
        assert val == pytest.approx(laplace(m, s).real, abs=1e-8)

    def test_pole_collision_raises(self):
        with pytest.raises(PoleEvaluation):
            laplace(exponential_model(2.0), -2.0)


class TestMoments:
    def test_exponential(self):
        m = new_model([Branch(1.0, (1.0 / 2.5,))])
        assert mean(m) == pytest.approx(2.5)
        assert second_moment(m) == pytest.approx(2 * 2.5**2)

    def test_erlang_n(self):
        mu, n = 2.0, 4
        m = new_model([Branch(1.0, (n / mu,) * n)])
        assert mean(m) == pytest.approx(mu)
        assert second_moment(m) == pytest.approx(mu**2 * (1 + 1 / n))

    def test_simplest_hyper_values(self):
        m = new_model([Branch(0.4, (1.0 / 2.5,)), Branch(0.6, ())])
        assert mean(m) == pytest.approx(1.0)
        assert second_moment(m) == pytest.approx(5.0)

    def test_moment_k_exponential(self):
        lam = 3.0
        assert moment_k(exponential_model(lam), 3) == pytest.approx(6 / lam**3)

    def test_moment_k_erlang2(self):
        m = new_model([Branch(1.0, (2.0, 2.0))])
        assert moment_k(m, 2) == pytest.approx(1.5)

    def test_moment_k_atom_only(self):
        m = new_model([Branch(1.0, ())])
        for k in (1, 2, 5):
            assert moment_k(m, k) == 0.0

    def test_moment_k_consistent_with_closed_forms(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = random_model(rng, allow_instant=True)
            assert moment_k(m, 1) == pytest.approx(mean(m), rel=1e-10)
            assert moment_k(m, 2) == pytest.approx(second_moment(m), rel=1e-10)

    def test_moment_k_rejects_k0(self):
        with pytest.raises(NonPositiveInput):
            moment_k(exponential_model(1.0), 0)

    def test_summary_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = random_model(rng, allow_instant=True)
            s = summarize(m)
            assert s.second_moment == pytest.approx(s.mean**2 + s.variance, rel=1e-12)


def finite_difference_moment(m, k, h):
    f = lambda s: laplace(m, s).real
    if k == 1:
        d = (f(h) - f(-h)) / (2 * h)
    elif k == 2:
        d = (f(h) - 2 * f(0.0) + f(-h)) / h**2
    else:
        d = (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2 * h**3)
    return (-1) ** k * d


class TestDerivativeIdentity:
    def test_finite_differences_match_moments(self):
        rng = np.random.default_rng(3)
        deltas = {1: 1e-5, 2: 1e-4, 3: 6e-4}
        for _ in range(100):
            m = random_model(rng)
            scale = 1.0 / mean(m)
            for k in (1, 2, 3):
                h = deltas[k] * scale
                got = finite_difference_moment(m, k, h)
                assert got == pytest.approx(moment_k(m, k), rel=1e-4)


class TestPdfCdf:
    def test_exponential_closed_form(self):
        lam = 2.0
        m = exponential_model(lam)
        ts = np.linspace(0, 5, 200)
        assert np.max(np.abs(pdf(m, ts) - lam * np.exp(-lam * ts))) <= 1e-10
        assert cdf(m, 1 / lam) == pytest.approx(1 - math.exp(-1), abs=1e-10)

    def test_erlang2_uniformization_accuracy(self):
        m = new_model([Branch(1.0, (2.0, 2.0))])
        ts = np.linspace(0, 10, 1000)
        closed = 4.0 * ts * np.exp(-2.0 * ts)
        assert np.max(np.abs(pdf(m, ts) - closed)) <= 1e-8

    def test_atom_appears_in_cdf_at_zero(self):
        m = new_model([Branch(0.4, (0.4,)), Branch(0.6, ())])
        assert cdf(m, 0.0) == pytest.approx(0.6, abs=1e-12)

    def test_cdf_stays_in_range_when_probabilities_sum_past_one_by_rounding(self):
        p = 0.49751243781094534
        m = new_model([Branch(p, (1.0,)), Branch(p, (1.0,)),
                       Branch(0.0049751243781094535, (1.0,))])
        got = cdf(m, 0.0)
        assert got == 0.0 and type(got) is float
        assert np.all(cdf(m, np.array([0.0, 1e-300, 1e3])) == [0.0, 0.0, 1.0])

    def test_cdf_monotone_and_limits(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = random_model(rng, allow_instant=True, rate_lo=0.5, rate_hi=3.0)
            mu = mean(m)
            if mu == 0.0:
                continue
            ts = np.linspace(0, 20 * mu, 400)
            vals = cdf(m, ts)
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[-1] >= 1 - 1e-6

    def test_quadrature_plus_atom_is_one(self):
        m = new_model([Branch(0.4, (1.0, 2.0)), Branch(0.3, (3.0,)), Branch(0.3, ())])
        mu = mean(m)
        val, _ = integrate.quad(lambda t: pdf(m, t), 0, 20 * mu, limit=200)
        assert val + m.atom_weight == pytest.approx(1.0, abs=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(NegativeTime):
            pdf(exponential_model(1.0), -0.1)
        with pytest.raises(NegativeTime):
            cdf(exponential_model(1.0), -0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f", [cdf, pdf])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("model", [
        exponential_model(2.0),
        new_model([Branch(1.0, (3.0,) * 4)]),
        new_model([Branch(1.0, (3.0, 1.0, 2.0))]),
    ], ids=["exponential", "erlang", "unequal_chain"])
    def test_nonfinite_time_rejected(self, model, bad, f):
        for t in (bad, np.array([0.5, bad, 1.0])):
            with pytest.raises(NegativeTime, match=f"got {bad!r}$"):
                f(model, t)

    def test_cross_branch_stiffness_matches_closed_form(self):
        # rates 0.4 and 4.8e12 in separate branches: each branch is
        # uniformized at its own rate, so the fast one cannot swamp the slow
        m = hyper_family(1.0, 4.0, 0.4 - 1e-13).model
        (b1, b2) = m.branches
        (l1,), (l2,) = b1.rates, b2.rates
        assert l2 / l1 > 1e12
        ts = np.linspace(0.0, 10.0, 1000)
        surv = b1.prob * np.exp(-l1 * ts) + b2.prob * np.exp(-l2 * ts)
        dens = b1.prob * l1 * np.exp(-l1 * ts) + b2.prob * l2 * np.exp(-l2 * ts)
        np.testing.assert_allclose(cdf(m, ts), 1.0 - surv, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pdf(m, ts), dens, rtol=1e-12, atol=1e-12)

    def test_stiff_chain_within_a_branch_refused(self):
        m = new_model([Branch(1.0, (1.0, 1e13))])
        with pytest.raises(StiffChain):
            cdf(m, 1.0)


# Values recorded from the dense-subgenerator implementation (global
# uniformization rate, scipy.stats Poisson weights) at GOLDEN_TS.
GOLDEN_TS = np.array([0.0, 0.3, 1.0, 2.5, 7.0])
GOLDEN_MODELS = {
    "almost_erlang3": fit_two_moments(1.0, 0.4).model,
    "almost_erlang20": fit_two_moments(1.0, 1 / 19.5).model,
    "hyper_atom": fit_two_moments(1.0, 16.0).model,
    "sauer_chandy": sauer_chandy(1.0, 4.0).model,
    "cox4_atom": new_model([Branch(0.35, (1.0, 2.0, 3.0)), Branch(0.25, (0.5,)),
                            Branch(0.25, (4.0, 4.0)), Branch(0.15, ())]),
}
GOLDEN = {  # name: (cdf at GOLDEN_TS, pdf at GOLDEN_TS, moment_k for k = 1..4)
    "almost_erlang3": (
        (0.0, 0.07411247233827933, 0.5923636169303059, 0.9702364821905628, 0.9999923325412609),
        (0.0, 0.5601430262908693, 0.6260314731832148, 0.05431799813001114, 1.409065753887678e-05),
        (1.0, 1.4000000000000001, 2.5696101229340824, 5.916880983472655),
    ),
    "almost_erlang20": (
        (0.0, 5.732955634107917e-06, 0.5311160410976491, 0.9999988913665947, 1.0),
        (0.0, 0.000273494219619428, 1.7571347780122628, 1.2463053247881306e-05,
         1.4983242261099144e-28),
        (0.9999999999999998, 1.051282051282051, 1.1593155444259655, 1.3383845677872426),
    ),
    "hyper_atom": (
        (0.8823529411764706, 0.8864327698323065, 0.8954106158349676, 0.9123307274101787,
         0.9483670670833465),
        (0.01384083044982699, 0.01336085060796395, 0.012304633431180287, 0.010314032069390733,
         0.006074462696076885),
        (1.0, 17.0, 433.49999999999994, 14738.999999999998),
    ),
    "sauer_chandy": (
        (0.0, 0.37364016552118073, 0.7595991338257634, 0.9253459432496718, 0.9767321051217709),
        (1.5999999999999999, 0.948355475266756, 0.28725252460386835, 0.033098917070762415,
         0.005250198234484458),
        (1.0, 5.000000000000001, 60.00000000000001, 1050.0000000000002),
    ),
    "cox4_atom": (
        (0.15000000000000002, 0.27525989461573874, 0.5638759467006005, 0.8489409672424997,
         0.9914940509153407),
        (0.125, 0.5212743899937521, 0.3034246282384008, 0.10888739735081829,
         0.004730403596841093),
        (1.2666666666666666, 3.7465277777777777, 17.684027777777775, 119.8458912037037),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_values(name):
    m = GOLDEN_MODELS[name]
    want_cdf, want_pdf, want_moments = GOLDEN[name]
    np.testing.assert_allclose(cdf(m, GOLDEN_TS), want_cdf, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(pdf(m, GOLDEN_TS), want_pdf, rtol=1e-13, atol=1e-13)
    got = [moment_k(m, k) for k in range(1, 5)]
    np.testing.assert_allclose(got, want_moments, rtol=1e-13, atol=0)


def test_moment_k_huge_erlang_in_linear_memory():
    n = 100_000
    m = new_model([Branch(1.0, (float(n),) * n)])
    tracemalloc.start()
    try:
        got = [moment_k(m, k) for k in range(1, 5)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Erlang-n with rate n: E[T^k] = n (n+1) ... (n+k-1) / n^k
    want = [math.prod(range(n, n + k)) / n**k for k in range(1, 5)]
    np.testing.assert_allclose(got, want, rtol=1e-10)
    assert peak < 32 * 2**20


@pytest.mark.parametrize("n", [10**4, 10**5, 10**6])
def test_moment_k_of_long_erlangs_is_exact(n):
    # Erlang-n with rate n: E[T^k] = n (n+1) ... (n+k-1) / rate^k, in rationals
    rate = float(n)
    m = new_model([Branch(1.0, (rate,) * n)])
    for k in range(1, 5):
        want = Fraction(math.prod(range(n, n + k))) / Fraction(rate) ** k
        assert abs(Fraction(moment_k(m, k)) - want) <= 1e-14 * want


def test_pdf_is_the_slope_of_cdf_on_a_long_almost_erlang():
    # 1e5 stages, the first 99999 at the top rate: they are shifted, not stepped
    n = 100_000
    m = fit_two_moments(1.0, 1.0 / (n - 0.5)).model
    ts = 1.0 + np.linspace(-4.0, 4.0, 25) / math.sqrt(n)  # mean +- 4 sd
    q = m.max_rate
    h = 1e-4 / q  # as in the cdf/pdf property: truncation near 1e-9 relative
    slope = (cdf(m, ts + h) - cdf(m, ts - h)) / (2.0 * h)
    np.testing.assert_allclose(pdf(m, ts), slope, rtol=1e-6, atol=1e-7 * q)


def test_cdf_memory_is_cache_sized():
    # the almost_erlang20 job of the analytic benchmark: 1e5 times out to
    # mean + 8 sd once took 154 MiB of Poisson weights
    m = GOLDEN_MODELS["almost_erlang20"]
    ts = np.linspace(0.0, mean(m) + 8.0 * math.sqrt(variance(m)), 100_000)
    tracemalloc.start()
    try:
        cdf(m, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_cdf_at_large_qt_matches_hypoexponential_closed_form():
    # almost-Erlang-2000: k = 1999 stages of rate a, then one of rate b < a,
    # so q t runs to about 2400 and each time needs about 1100 Poisson terms.
    # With G ~ Gamma(k, a), x = (a - b) t and E ~ Exp(b),
    # P(G + E > t) = Q(k, a t) + e^{-bt} (a / (a-b))^k P(k, x)
    #              = Q(k, a t) + Poisson(k; a t) sum_j x^j k! / (k + j)!
    m = fit_two_moments(1.0, 1 / 1999.5).model
    (branch,) = m.branches
    a, b, k = branch.rates[0], branch.rates[-1], branch.length - 1
    assert branch.rates[:-1] == (a,) * k and b < a
    ts = np.linspace(0.0, mean(m) + 8.0 * math.sqrt(variance(m)), 10_000)
    x = (a - b) * ts
    assert np.all(x < 0.6 * k)  # the series converges geometrically
    term, series = np.ones_like(ts), np.ones_like(ts)
    for j in range(1, 200):
        term *= x / (k + j)
        series += term
    surv = special.gammaincc(k, a * ts) + stats.poisson.pmf(k, a * ts) * series
    np.testing.assert_allclose(cdf(m, ts), 1.0 - surv, rtol=0, atol=1e-12)


def test_cdf_of_erlang_20000_matches_regularized_incomplete_gamma():
    # q t runs to about 2.2e4, where scipy's gammainc agrees with mpmath to
    # within 3e-15; taken apart, the n log n and log n! of the Poisson weights
    # cancel and leave the cdf about 7e-12 off
    n = 20_000
    m = new_model([Branch(1.0, (float(n),) * n)])
    ts = np.linspace(0.0, mean(m) + 8.0 * math.sqrt(variance(m)), 10_000)
    np.testing.assert_allclose(cdf(m, ts), special.gammainc(n, n * ts), rtol=0, atol=2e-12)


def test_nlogn_minus_logfact_matches_mpmath():
    ns = [float(n) for n in range(300)] + [10.0 ** e + d for e in range(3, 8) for d in (0, 1)]
    got = _nlogn_minus_logfact(np.array(ns))
    with mpmath.workdps(40):
        want = [float(n * mpmath.log(n) - mpmath.loggamma(n + 1)) if n else 0.0 for n in ns]
    np.testing.assert_array_less(np.abs(got - want), 2e-15 * np.maximum(1.0, np.abs(want)))


def test_import_does_not_load_scipy():
    # the runtime is numpy alone; importing scipy would add about 0.3 s to each CLI call
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, phasefit, phasefit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def brute_force_min_second_moment(probs, lengths, mu):
    """Convex QP oracle: minimize E[T^2] s.t. the mean constraint, x >= 0."""
    sizes = list(lengths)
    total = sum(sizes)
    slices = []
    pos = 0
    for L in sizes:
        slices.append(slice(pos, pos + L))
        pos += L

    def objective(x):
        return sum(
            p * (x[sl].sum() ** 2 + (x[sl] ** 2).sum())
            for p, sl in zip(probs, slices)
        )

    def constraint(x):
        return sum(p * x[sl].sum() for p, sl in zip(probs, slices)) - mu

    best = math.inf
    rng = np.random.default_rng(99)
    for _ in range(4):
        x0 = rng.uniform(0.1, 2.0, size=total)
        x0 *= mu / (constraint(x0) + mu)  # start on the constraint surface
        res = optimize.minimize(
            objective, x0, method="SLSQP",
            constraints=[{"type": "eq", "fun": constraint}],
            bounds=[(0.0, None)] * total,
            options={"ftol": 1e-14, "maxiter": 500},
        )
        if res.success:
            best = min(best, res.fun)
    return best


class TestMinSecondMoment:
    def test_single_branch_formula(self):
        for n in (1, 2, 5):
            r = min_second_moment([1.0], [n], 1.0)
            assert r.ratio_min == pytest.approx(1 + 1 / n, rel=1e-14)
            assert r.lower_bound == pytest.approx(1 + 1 / n)

    def test_two_branch_hand_value(self):
        r = min_second_moment([0.5, 0.5], [1, 2], 1.0)
        assert r.ratio_min == pytest.approx(1 / (0.25 + 1 / 3), rel=1e-12)
        assert r.jstar == 1

    def test_exponential_case(self):
        assert min_second_moment([1.0], [1], 1.0).ratio_min == pytest.approx(2.0)

    def test_optimal_stage_means_hit_the_mean(self):
        r = min_second_moment([0.3, 0.7], [2, 3], 2.0)
        total = sum(
            p * sum(xs) for p, xs in zip([0.3, 0.7], r.optimal_x)
        )
        assert total == pytest.approx(2.0, rel=1e-12)
        for xs in r.optimal_x:
            assert len(set(xs)) == 1

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = int(rng.integers(1, 3))
            lengths = [int(rng.integers(1, 3)) for _ in range(m)]
            while sum(lengths) > 4:
                lengths[-1] = 1
            probs = rng.dirichlet(np.ones(m)).tolist()
            mu = float(rng.uniform(0.5, 3.0))
            r = min_second_moment(probs, lengths, mu)
            oracle = brute_force_min_second_moment(probs, lengths, mu)
            assert oracle >= r.ratio_min * mu**2 - 1e-6
            assert oracle == pytest.approx(r.ratio_min * mu**2, rel=1e-6)

    def test_bound_ordering(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            lengths = [int(rng.integers(1, 5)) for _ in range(m)]
            probs = rng.dirichlet(np.ones(m)).tolist()
            r = min_second_moment(probs, lengths, 1.0)
            assert r.ratio_min >= r.lower_bound - 1e-12

    def test_bound_tight_iff_longest_branch_carries_all_mass(self):
        r = min_second_moment([1.0, 0.0], [3, 1], 1.0)
        assert r.ratio_min == pytest.approx(r.lower_bound)
        r = min_second_moment([0.5, 0.5], [3, 1], 1.0)
        assert r.ratio_min > r.lower_bound + 1e-9

    def test_degenerate_probs_rejected(self):
        with pytest.raises(DegenerateProbs):
            min_second_moment([0.0, 0.0], [1, 1], 1.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, 0.0, -1.0])
    def test_nonpositive_or_nonfinite_mu_rejected(self, mu):
        with pytest.raises(NonPositiveInput):
            min_second_moment([0.5, 0.5], [1, 2], mu)

    def test_atom_branches_add_nothing(self):
        r = min_second_moment([0.4, 0.6], [1, 0], 1.0)
        assert r.ratio_min == pytest.approx(1 / (0.4 * 0.5), rel=1e-14)
        assert r.lower_bound == 2.0
        assert r.jstar == 0
        assert r.optimal_x[1] == ()

    @pytest.mark.parametrize("probs", [[-0.5, 1.5], [math.nan, 1.0]])
    def test_probability_outside_unit_interval_rejected(self, probs):
        with pytest.raises(ProbSumInvalid):
            min_second_moment(probs, [1, 2], 1.0)

    def test_all_mass_on_atoms_rejected(self):
        for probs, lengths in [([1.0], [0]), ([0.5, 0.5], [0, 0]), ([1.0, 0.0], [0, 2])]:
            with pytest.raises(DegenerateProbs):
                min_second_moment(probs, lengths, 1.0)
        with pytest.raises(NonPositiveInput):
            min_second_moment([1.0], [-1], 1.0)


def test_variance_nonnegative_random_models():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = random_model(rng, allow_instant=True)
        assert variance(m) >= -1e-12


def test_variance_beyond_squared_mean_range():
    # mean 1.5e154: its square overflows, the variance 1.53e308 does not
    m = new_model([Branch(1.0, (1 / 1.2e154, 1 / 0.3e154))])
    assert variance(m) == pytest.approx(1.53e308, rel=1e-15)
    with pytest.raises(MomentOverflow):
        variance(new_model([Branch(1.0, (1e-160,))]))
    with pytest.raises(MomentOverflow):
        variance(new_model([Branch(1.0, (1e-308,) * 2)]))  # the mean overflows
    with pytest.raises(MomentOverflow):
        MomentSummary.from_mean_var(1.5e154, 1.0)


@pytest.mark.parametrize("moment", [mean, second_moment, summarize, lambda m: moment_k(m, 1)],
                         ids=["mean", "second_moment", "summarize", "moment_k"])
@pytest.mark.filterwarnings("error")
def test_moment_past_float_range_raises(moment):
    # fsum raises a bare OverflowError here and moment_k gives inf
    with pytest.raises(MomentOverflow):
        moment(new_model([Branch(1.0, (1e-308, 1e-308))]))


@pytest.mark.filterwarnings("error")
def test_moment_order_past_170():
    # 171! passes the float range; 171!/2^171 = 4.1e257 does not
    want = Fraction(math.factorial(171), 2**171)
    assert abs(Fraction(moment_k(exponential_model(2.0), 171)) - want) <= 1e-13 * want
    assert moment_k(new_model([Branch(1.0, ())]), 200) == 0.0
    with pytest.raises(MomentOverflow):
        moment_k(exponential_model(1.0), 171)  # 171! itself
    with pytest.raises(MomentOverflow):
        moment_k(exponential_model(2.0), 1100)  # 2^-1100 underflows on the way


@pytest.mark.filterwarnings("error")
def test_higher_moment_past_float_range_raises():
    m = new_model([Branch(1.0, (1e-160,))])
    assert moment_k(m, 1) == pytest.approx(1e160)
    with pytest.raises(MomentOverflow):
        moment_k(m, 2)
    with pytest.raises(MomentOverflow):
        second_moment(m)
