"""Minimal-topology two-moment matching.

Dispatch: variance below the squared mean gives the almost-Erlang
hypoexponential with N = ceil(mu^2/sigma^2) stages; above it, the one-state
hyperexponential with an atom at zero, the p = 2/(1+Cv^2) limit of the
two-branch family; equality, a single exponential. The Sauer-Chandy
two-state hyperexponential is kept as a comparison baseline. Every fit is
built by one of two constructions: _chain or _two_branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import MomentSummary, summarize
from .errors import (
    DeterministicUnrepresentable,
    DomainError,
    InsufficientData,
    MomentOverflow,
    NegativeObservation,
    NonFiniteObservation,
    NonPositiveInput,
    POutOfRange,
)
from .model import Branch, GeneralizedCoxModel, new_model

# Families
EXPONENTIAL = "Exponential"
ERLANG = "Erlang"
ALMOST_ERLANG = "AlmostErlang"
SIMPLEST_HYPER = "SimplestHyper"
HYPER_FAMILY = "HyperFamily"
SAUER_CHANDY = "SauerChandy"

# Guard against ceil() bumping N up when mu^2/sigma^2 is integral to roundoff.
_CEIL_GUARD = 1e-12
# Fits needing more stages than this are refused rather than built.
MAX_STAGES = 1_000_000


@dataclass(frozen=True)
class FitResult:
    model: GeneralizedCoxModel
    family: str
    n_transient: int
    target: MomentSummary
    achieved: MomentSummary
    alpha_n: float


def _check_targets(mu: float, sigma2: float) -> float:
    """Validate the targets and return Cv^2, which every family and the
    dispatch compute the same way (dividing twice cannot underflow mu^2)."""
    if not (mu > 0.0 and math.isfinite(mu)):
        raise NonPositiveInput(f"mean must be positive, got {mu}")
    if not (sigma2 >= 0.0 and math.isfinite(sigma2)):
        raise NonPositiveInput(f"variance must be nonnegative, got {sigma2}")
    cv2 = sigma2 / mu / mu
    if not math.isfinite(cv2):
        raise DomainError(f"Cv^2 = sigma^2/mu^2 of mean {mu!r} and variance "
                          f"{sigma2!r} exceeds the float range")
    return cv2


def _result(model, family, mu, sigma2, alpha_n):
    return FitResult(model, family, model.n_transient,
                     MomentSummary.from_mean_var(mu, sigma2), summarize(model), alpha_n)


def minimal_states(mu: float, sigma2: float) -> int:
    """Smallest transient-state count able to match (mu, sigma2)."""
    return _minimal_states(mu, sigma2, _check_targets(mu, sigma2))


def _minimal_states(mu: float, sigma2: float, cv2: float) -> int:
    if sigma2 <= 0.0:
        raise NonPositiveInput("variance must be positive")
    if cv2 >= 1.0:
        return 1
    ratio = mu / sigma2 * mu
    if not ratio <= MAX_STAGES:
        raise DomainError(f"matching these moments needs N = {ratio:.6g} stages, "
                          f"more than {MAX_STAGES}")
    return max(1, math.ceil(ratio - _CEIL_GUARD))


def _chain(mu: float, n: int, alpha: float) -> GeneralizedCoxModel:
    """One chain of n stages: n-1 of mean mu/n - alpha/sqrt(n-1), then one of
    mean mu/n + sqrt(n-1) alpha. alpha = 0 gives the Erlang-n, and n = 1 the
    exponential of mean mu."""
    base = mu / n
    x_head = base - alpha / math.sqrt(max(n - 1, 1))  # no head stage at n = 1
    x_last = base + math.sqrt(n - 1) * alpha
    return new_model([Branch(1.0, (1.0 / x_head,) * (n - 1) + (1.0 / x_last,))])


def almost_erlang(mu: float, sigma2: float) -> FitResult:
    """Single-branch hypoexponential: N-1 equal stage means plus one distinct
    stage, with N = ceil(mu^2/sigma^2) >= 2; fit_two_moments on that domain."""
    cv2 = _check_targets(mu, sigma2)
    if cv2 >= 1.0:
        raise DomainError("almost-Erlang requires sigma^2 < mu^2")
    if _minimal_states(mu, sigma2, cv2) < 2:
        raise DomainError("ceil(mu^2/sigma^2) must be >= 2")
    return fit_two_moments(mu, sigma2)


def _almost_erlang(mu: float, sigma2: float, cv2: float, n: int) -> FitResult:
    # sqrt(N sigma2 - mu^2) / N with mu factored out, so nothing overflows; N Cv^2 >= 1 up to
    # roundoff at integral mu^2/sigma^2, and N = 1 (sigma^2 below mu^2 by roundoff) is exponential.
    alpha_n = mu * math.sqrt(max(n * cv2 - 1.0, 0.0)) / n
    family = EXPONENTIAL if n == 1 else ERLANG if alpha_n == 0.0 else ALMOST_ERLANG
    return _result(_chain(mu, n, alpha_n), family, mu, sigma2, alpha_n)


def _two_branch(mu: float, cv2: float, p: float) -> tuple[GeneralizedCoxModel, float]:
    """Two-branch hyperexponential (Cv^2 >= 1) and its alpha = sqrt(p (1-p)
    (Cv^2-1)/2): stage means mu (1 + alpha/p) and mu (1 - alpha/(1-p)). At
    p_max = 2/(1+Cv^2), or up to 1e-15 above it, p is clamped to p_max: first
    mean mu (1+Cv^2)/2, second branch the atom at zero."""
    p_max = 2.0 / (1.0 + cv2)
    if not (0.0 < p <= p_max + 1e-15):
        raise POutOfRange(f"p={p} outside (0, {p_max}]")
    p = min(p, p_max)
    alpha = math.sqrt(p * (1.0 - p) * (cv2 - 1.0) / 2.0)
    if p == p_max:
        x1, x2 = mu * (cv2 + 1.0) / 2.0, 0.0
    else:
        x1, x2 = mu * (1.0 + alpha / p), mu * (1.0 - alpha / (1.0 - p))
    branches = [Branch(p, (1.0 / x1,))]
    if x2 > 1e-15 * mu:
        branches.append(Branch(1.0 - p, (1.0 / x2,)))
    elif p < 1.0:
        branches.append(Branch(1.0 - p, ()))
    return new_model(branches), alpha


def simplest_hyper(mu: float, sigma2: float) -> FitResult:
    """One exponential state plus an atom at zero: the p = 2/(1+Cv^2) limit of
    hyper_family, the minimal topology for Cv >= 1; fit_two_moments there."""
    cv2 = _check_targets(mu, sigma2)
    if cv2 < 1.0:
        raise DomainError("simplest hyperexponential requires sigma^2 >= mu^2")
    return fit_two_moments(mu, sigma2)


def hyper_family(mu: float, sigma2: float, p: float) -> FitResult:
    """Two-branch hyperexponential with caller-chosen routing probability
    0 < p <= 2/(1+Cv^2); at the upper limit it is simplest_hyper's model."""
    cv2 = _check_targets(mu, sigma2)
    if cv2 <= 1.0:
        raise DomainError("hyperexponential family requires sigma^2 > mu^2")
    model, alpha = _two_branch(mu, cv2, p)
    return _result(model, HYPER_FAMILY, mu, sigma2, alpha)


def fit_two_moments(mu: float, sigma2: float) -> FitResult:
    """Minimal-state fit of the first two moments; the targets are checked once."""
    cv2 = _check_targets(mu, sigma2)
    if sigma2 == 0.0:
        raise DeterministicUnrepresentable("zero variance needs infinitely many stages; "
                                           "use an explicit Erlang-N approximation instead")
    if cv2 >= 1.0:  # the simplest hyperexponential, with alpha_n = p
        p = 2.0 / (1.0 + cv2)
        model, _ = _two_branch(mu, cv2, p)
        return _result(model, EXPONENTIAL if p == 1.0 else SIMPLEST_HYPER, mu, sigma2, p)
    return _almost_erlang(mu, sigma2, cv2, _minimal_states(mu, sigma2, cv2))


def erlang_approximation(mu: float, n: int) -> FitResult:
    """Erlang-N with mean mu (variance mu^2/N); explicit escape hatch for
    approximating a deterministic delay."""
    _check_targets(mu, 0.0)
    if n < 1:
        raise NonPositiveInput("stage count must be >= 1")
    if n > MAX_STAGES:
        raise DomainError(f"Erlang-{n} has more than {MAX_STAGES} stages")
    return _almost_erlang(mu, mu * mu / n, 0.0, n)  # a deterministic target: Cv^2 = 0, alpha = 0


def sauer_chandy(mu: float, sigma2: float) -> FitResult:
    """Sauer-Chandy two-state hyperexponential baseline (Cv > 1 branch): the
    balanced-means member of hyper_family, p x1 = (1-p) x2 = mu/2, at
    p = 1/(Cv^2+1 + sqrt(Cv^4-1)) (the published (Cv^2+1 - sqrt(Cv^4-1))
    / (2 (Cv^2+1)) without its cancellation)."""
    cv2 = _check_targets(mu, sigma2)
    if cv2 <= 1.0:
        raise DomainError("Sauer-Chandy baseline requires sigma^2 > mu^2")
    p = 1.0 / (cv2 + 1.0 + math.sqrt(cv2 - 1.0) * math.sqrt(cv2 + 1.0))
    model, _ = _two_branch(mu, cv2, p)
    return _result(model, SAUER_CHANDY, mu, sigma2, p)


def sample_stats(data) -> MomentSummary:
    """Mean and unbiased variance of finite, nonnegative observations."""
    xs = np.asarray(list(data), dtype=float)
    if xs.size < 2:
        raise InsufficientData("need at least 2 observations")
    if not np.all(np.isfinite(xs)):
        raise NonFiniteObservation("observations must be finite")
    if np.any(xs < 0.0):
        raise NegativeObservation("observations must be nonnegative")
    p = math.frexp(float(xs.max()))[1]  # in units of 2^p > max xs: exact, and no square overflows
    ys = np.ldexp(xs, -p)
    m, s2 = float(ys.mean()), float(ys.var(ddof=1))
    if math.frexp(s2)[1] + 2 * p > 1024:  # E[X^2] passes the float range (at s2 = 0 as mean^2)
        raise MomentOverflow("observations must be small enough for a float second moment")
    return MomentSummary.from_mean_var(math.ldexp(m, p), math.ldexp(s2, 2 * p))
