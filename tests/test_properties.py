"""Property tests of the fitting contracts over extreme magnitudes."""

import math
import sys

from hypothesis import assume, event, given, settings, strategies as st

from phasefit import fit_two_moments, hyper_family, sauer_chandy
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
