"""Property tests of the fitting and CTMC export contracts over extreme
magnitudes."""

import json
import math
import sys

import mpmath
import numpy as np
from hypothesis import assume, event, given, settings, strategies as st
from scipy import linalg

from phasefit import (
    Branch,
    absorption_time_moments,
    almost_erlang,
    approx_ctmc,
    cdf,
    erlang_approximation,
    exact_absorbing_ctmc,
    export_json,
    fit_two_moments,
    hyper_family,
    mean,
    moment_k,
    new_model,
    parse_ctmc_json,
    pdf,
    sauer_chandy,
)
from phasefit.errors import MalformedModel, PhasefitError
from phasefit.markov import CtmcExport
from phasefit.model import to_phase_type

REL = 1e-9


def _fits(mu, sigma2):
    p_max = 2.0 / (1.0 + sigma2 / mu / mu)
    yield "fit_two_moments", lambda: fit_two_moments(mu, sigma2)
    yield "sauer_chandy", lambda: sauer_chandy(mu, sigma2)
    yield "hyper_family(p_max)", lambda: hyper_family(mu, sigma2, p_max)
    yield "hyper_family(p_max/2)", lambda: hyper_family(mu, sigma2, p_max / 2.0)


@settings(max_examples=300)
@given(st.floats(-300.0, 300.0), st.floats(-12.0, 12.0))
def test_two_moment_fits_are_exact_or_refused(log_mu, log_cv2):
    mu = 10.0 ** log_mu
    sigma2 = 10.0 ** log_cv2 * mu * mu
    assume(sys.float_info.min <= sigma2 <= sys.float_info.max)
    for name, fit in _fits(mu, sigma2):
        try:
            result = fit()
        except PhasefitError as exc:
            event(f"{name} {type(exc).__name__}")
            continue
        event(f"{name} ok")
        assert math.isclose(result.achieved.mean, mu, rel_tol=REL), name
        assert math.isclose(result.achieved.variance, sigma2, rel_tol=REL), name
        if name == "hyper_family(p_max)":
            assert result.n_transient == 1


@settings(max_examples=200)
@given(st.floats(-300.0, 300.0), st.integers(1, 10_000))
def test_erlang_approximation_is_the_erlang_fit(log_mu, n):
    mu = 10.0 ** log_mu
    try:
        fit = erlang_approximation(mu, n)
    except PhasefitError as exc:
        event(f"erlang_approximation {type(exc).__name__}")
        return
    (branch,) = fit.model.branches
    assert len(set(branch.rates)) == 1 and branch.length == n
    assert math.isclose(fit.achieved.mean, mu, rel_tol=REL)
    try:
        erlang = fit_two_moments(mu, mu * mu / n)
    except PhasefitError as exc:
        event(f"fit_two_moments {type(exc).__name__}")
        return
    if erlang.n_transient == n and len(set(erlang.model.branches[0].rates)) == 1:
        event("fit_two_moments Erlang-n")
        assert erlang.model == fit.model


@st.composite
def models(draw, decades=3.0):
    """Up to three branches of up to four stages, rates log-uniform in
    [10^-decades, 10^decades]; zero-length branches are atoms at zero."""
    shapes = draw(st.lists(st.tuples(st.floats(0.01, 1.0), st.integers(0, 4)),
                           min_size=1, max_size=3))
    total = math.fsum(w for w, _ in shapes)
    return new_model(
        Branch(w / total,
               tuple(10.0 ** draw(st.floats(-decades, decades)) for _ in range(length)))
        for w, length in shapes)


@st.composite
def almost_erlangs(draw):
    """Almost-Erlang fits of mean 1 and N = 2..30 stages, Cv^2 inside (1/N, 1/(N-1)).
    Cv^2 stays 1 % of that range off its top, where the N = 2 head rate grows without bound."""
    n = draw(st.integers(2, 30))
    cv2 = 1.0 / n + draw(st.floats(0.0, 0.99, exclude_min=True)) * (1.0 / (n - 1) - 1.0 / n)
    return almost_erlang(1.0, cv2).model


@settings(max_examples=200)
@given(models(), st.floats(2.0, 8.0))
def test_ctmc_exports_build_round_trip_and_match_moments(model, log_factor):
    big_lambda = 10.0 ** log_factor * max(model.max_rate, 1.0)
    exact, approx = exact_absorbing_ctmc(model), approx_ctmc(model, big_lambda)
    # the routed chain is the exact chain plus its routing row
    assert np.array_equal(approx.generator[1:, 1:], exact.generator)
    assert not approx.generator[1:, 0].any()
    assert np.array_equal(approx.generator[0], np.r_[-big_lambda, big_lambda * exact.initial])
    assert approx.labels == ("I",) + exact.labels
    assert np.array_equal(approx.initial, np.eye(1, exact.n_states + 1)[0])
    assert approx.absorbing_index == exact.absorbing_index + 1
    for ctmc in (exact, approx):
        back = parse_ctmc_json(export_json(ctmc))
        assert back.labels == ctmc.labels
        assert back.absorbing_index == ctmc.absorbing_index
        assert np.array_equal(back.generator, ctmc.generator)
        assert np.array_equal(back.initial, ctmc.initial)
    for k in (1, 2, 3):
        assert math.isclose(absorption_time_moments(exact, k), moment_k(model, k),
                            rel_tol=REL)


# What a JSON field can hold: None, bools, small and 400-digit integers, floats with NaN and inf,
# short strings, and lists of these nested to any depth.
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.integers(10**399, 10**400),
              st.floats(), st.text(max_size=2)),
    lambda inner: st.lists(inner, max_size=4), max_leaves=10)


@settings(max_examples=300)
@given(models(decades=1.0), st.data())
def test_ctmc_input_is_a_chain_or_malformed(model, data):
    """parse_ctmc_json of an object, and CtmcExport called directly, with every field drawn or with
    one field of a valid export replaced: each returns a chain or raises MalformedModel."""
    c = exact_absorbing_ctmc(model)
    obj = json.loads(export_json(c))
    args = dict(labels=list(c.labels), edges=c.edges, exits=c.exits, initial=c.initial,
                absorbing_index=c.absorbing_index, generator=None)
    for fields in (obj, args):
        for key in data.draw(st.sampled_from([[key] for key in fields] + [list(fields)])):
            fields[key] = data.draw(_json_values)
    for build in (lambda: parse_ctmc_json(json.dumps(obj)), lambda: CtmcExport(**args)):
        try:
            assert isinstance(build(), CtmcExport)
            event("a chain")
        except MalformedModel:
            event("MalformedModel")


def _mp_moment(model, k):
    """k! sum_j p_j h_k(x_j) at 40 digits, h_k of the stage means by the
    recurrence h_k(x_1..x_m) = h_k(x_1..x_{m-1}) + x_m h_{k-1}(x_1..x_m)."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for b in model.branches:
            if b.instantaneous:
                continue
            h = [mpmath.mpf(1)] + [mpmath.mpf(0)] * k
            for rate in b.rates:
                x = 1 / mpmath.mpf(rate)
                for i in range(1, k + 1):
                    h[i] += x * h[i - 1]
            total += b.prob * h[k]
        return float(mpmath.factorial(k) * total)


@settings(max_examples=200)
@given(st.one_of(models(decades=4.0), almost_erlangs()), st.integers(1, 8))
def test_moment_k_matches_mpmath(model, k):
    assert math.isclose(moment_k(model, k), _mp_moment(model, k), rel_tol=1e-13)


# Rates within one decade of 1 keep q t, the uniformization term count, in
# the thousands at six means, so the property runs in a few seconds.
@settings(max_examples=100)
@given(st.one_of(models(decades=1.0), almost_erlangs()))
def test_cdf_and_pdf_match_the_matrix_exponential(model):
    rep = to_phase_type(model)
    scale = mean(model) or 1.0  # 0 when every branch is an atom
    ts = scale * np.linspace(0.0, 6.0, 25)
    got = cdf(model, ts)
    # scipy's expm treats a triangular matrix apart, and its formula for the
    # superdiagonal cancels when two rates nearly agree (1e-4 off at rates 1
    # and 1 + 2.3e-14); an orthogonal change of basis makes the matrix dense
    rot = np.linalg.qr(np.random.default_rng(rep.n).normal(size=(rep.n, rep.n)))[0]
    a, ones = rep.alpha @ rot.T, rot @ np.ones(rep.n)
    t_mat = exact_absorbing_ctmc(model).generator[:-1, :-1]
    want = [1.0 - a @ linalg.expm(rot @ t_mat @ rot.T * t) @ ones for t in ts]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # cdf is clipped to [0, 1]; monotone up to that accuracy
    assert np.all((got >= 0.0) & (got <= 1.0)) and np.all(np.diff(got) >= -1e-12)
    assert math.isclose(got[0], model.atom_weight, rel_tol=0, abs_tol=1e-12)
    # central differences with h = 1e-4 / q: truncation near 1e-9 relative
    q = max(model.max_rate, 1.0)
    h = 1e-4 / q
    slope = (cdf(model, ts[1:] + h) - cdf(model, ts[1:] - h)) / (2.0 * h)
    np.testing.assert_allclose(pdf(model, ts[1:]), slope, rtol=1e-6, atol=1e-7 * q)
