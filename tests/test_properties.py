"""Property tests of the fitting and CTMC export contracts over extreme
magnitudes."""

import math
import sys

import numpy as np
from hypothesis import assume, event, given, settings, strategies as st

from phasefit import (
    Branch,
    absorption_time_moments,
    approx_ctmc,
    erlang_approximation,
    exact_absorbing_ctmc,
    export_json,
    fit_two_moments,
    hyper_family,
    moment_k,
    new_model,
    parse_ctmc_json,
    sauer_chandy,
)
from phasefit.errors import PhasefitError

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
def models(draw):
    """Up to three branches of up to four stages, rates log-uniform in
    [1e-3, 1e3]; zero-length branches are atoms at zero."""
    shapes = draw(st.lists(st.tuples(st.floats(0.01, 1.0), st.integers(0, 4)),
                           min_size=1, max_size=3))
    total = math.fsum(w for w, _ in shapes)
    return new_model(
        Branch(w / total, tuple(10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(length)))
        for w, length in shapes)


@settings(max_examples=200)
@given(models(), st.floats(2.0, 8.0))
def test_ctmc_exports_build_round_trip_and_match_moments(model, log_factor):
    big_lambda = 10.0 ** log_factor * max(model.max_rate, 1.0)
    for ctmc in (exact_absorbing_ctmc(model), approx_ctmc(model, big_lambda)):
        back = parse_ctmc_json(export_json(ctmc))
        assert back.labels == ctmc.labels
        assert back.absorbing_index == ctmc.absorbing_index
        assert np.array_equal(back.generator, ctmc.generator)
        assert np.array_equal(back.initial, ctmc.initial)
    exact = exact_absorbing_ctmc(model)
    for k in (1, 2, 3):
        assert math.isclose(absorption_time_moments(exact, k), moment_k(model, k),
                            rel_tol=REL)
