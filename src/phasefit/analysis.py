"""Analytic quantities of a Generalized Cox model.

Laplace transform, raw moments of any order, density and CDF via
uniformization, and the closed-form minimum of the second moment over stage
means at fixed mean and routing probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, pdtrik, xlogy

from .errors import (
    DegenerateProbs,
    MomentOverflow,
    NegativeTime,
    NonPositiveInput,
    PoleEvaluation,
    ProbSumInvalid,
    StiffChain,
)
from .model import GeneralizedCoxModel, PhaseTypeRep, to_phase_type

POLE_TOL = 1e-14
UNIFORMIZATION_TAIL = 1e-12
# A branch needing more uniformization terms than this is refused as too stiff.
MAX_UNIFORMIZATION_TERMS = 10_000_000


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    variance: float
    second_moment: float
    cv2: float
    higher: tuple[float, ...] = ()

    @classmethod
    def from_mean_var(cls, mean: float, variance: float,
                      higher: tuple[float, ...] = ()) -> "MomentSummary":
        if mean < 0.0 or variance < 0.0:
            raise NonPositiveInput("mean and variance must be nonnegative")
        second = mean * mean + variance
        if not math.isfinite(second):
            raise MomentOverflow(f"second moment of mean {mean!r} and variance "
                                 f"{variance!r} exceeds the float range")
        cv2 = variance / mean / mean if mean > 0.0 else math.inf
        return cls(mean, variance, second, cv2, higher)


def laplace(model: GeneralizedCoxModel, s: complex) -> complex:
    """Transform value sum_j p_j prod_k lambda_jk / (s + lambda_jk)."""
    total = 0.0 + 0.0j
    for b in model.branches:
        term = complex(b.prob)
        for rate in b.rates:
            if abs(s + rate) < POLE_TOL:
                raise PoleEvaluation(f"s={s} collides with pole at {-rate}")
            term *= rate / (s + rate)
        total += term
    return total


def mean(model: GeneralizedCoxModel) -> float:
    return math.fsum(
        b.prob * math.fsum(1.0 / r for r in b.rates) for b in model.branches
    )


def second_moment(model: GeneralizedCoxModel) -> float:
    total = 0.0
    for b in model.branches:
        xs = [1.0 / r for r in b.rates]
        sx = math.fsum(xs)
        # p multiplies first: a huge stage mean behind a tiny p stays finite
        total += b.prob * sx * sx + math.fsum(b.prob * x * x for x in xs)
    return total


def variance(model: GeneralizedCoxModel) -> float:
    """Law of total variance: the stage variances plus the spread of the
    branch means about the mean. Every term is at most the result, so a
    variance within the float range is computed without overflow."""
    try:
        m = mean(model)
        terms = []
        for b in model.branches:
            xs = [1.0 / r for r in b.rates]
            d = math.fsum(xs) - m
            terms.append(b.prob * d * d)
            terms.extend(b.prob * x * x for x in xs)
        var = math.fsum(terms)
    except OverflowError:  # fsum refuses a sum of finite terms past the range
        var = math.inf
    if not math.isfinite(var):
        raise MomentOverflow("variance exceeds the float range")
    return var


def summarize(model: GeneralizedCoxModel, higher_k: int = 0) -> MomentSummary:
    m1 = mean(model)
    var = variance(model)
    higher = tuple(moment_k(model, k) for k in range(3, higher_k + 1))
    return MomentSummary.from_mean_var(m1, var, higher)


def _neg_subgen_solve(rep: PhaseTypeRep, b: np.ndarray) -> np.ndarray:
    """Solve (-T) x = b exploiting the per-branch upper-bidiagonal blocks.

    Within a chain, row k reads lambda_k x_k - lambda_k x_{k+1} = b_k, so
    x_k = sum_{i>=k} b_i / lambda_i, a suffix cumulative sum per block.
    """
    x = b / rep.rates
    for (block,) in rep.blocks(x):
        block[:] = block[::-1].cumsum()[::-1]
    return x


def moment_k(model: GeneralizedCoxModel, k: int) -> float:
    """k-th raw moment, k! * alpha (-T)^{-k} 1 on the phase-type form."""
    if k < 1:
        raise NonPositiveInput("moment order must be >= 1")
    rep = to_phase_type(model)
    v = np.ones(rep.n)
    for _ in range(k):
        v = _neg_subgen_solve(rep, v)
    return float(math.factorial(k) * rep.alpha @ v)


def _uniformized_apply(rep: PhaseTypeRep, t, v: np.ndarray):
    """alpha exp(T t) v at a time or array of times, uniformized per branch.

    Each branch is uniformized at its own largest rate q, so a fast branch
    cannot stiffen a slow one (Reibman & Trivedi, Comput. Oper. Res. 15(1),
    1988). An equal-rate branch makes P = I + T/q a pure shift, exact after
    L terms; any other is cut where the Poisson tail at the largest q t
    falls below UNIFORMIZATION_TAIL.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0.0):
        raise NegativeTime("density and cdf defined for t >= 0")
    out = np.zeros_like(ts)
    for alpha, rates, w in rep.blocks(rep.alpha, rep.rates, v):
        q = float(rates.max())
        if np.all(rates == q):
            coeffs = w  # (P^n v)_0 = v_n
        else:
            qt_max = q * float(np.max(ts, initial=0.0))
            tail = pdtrik(1.0 - UNIFORMIZATION_TAIL * 1e-2, qt_max)
            if not tail <= MAX_UNIFORMIZATION_TERMS:
                raise StiffChain(f"rates {rates.min()!r} to {q!r} need {tail!r} "
                                 f"uniformization terms at q*t = {qt_max!r}")
            r = rates / q
            coeffs = np.empty(math.ceil(tail) + 3)
            for n in range(len(coeffs)):
                coeffs[n] = w[0]
                # bidiagonal step w <- P w: w_k = (1 - r_k) w_k + r_k w_{k+1}
                w = (1.0 - r) * w + r * np.append(w[1:], 0.0)
        ns = np.arange(len(coeffs))
        chunk = max(1, 10_000_000 // len(coeffs))
        for lo in range(0, len(ts), chunk):
            qt = q * ts[lo:lo + chunk, None]
            pmf = np.exp(xlogy(ns, qt) - gammaln(ns + 1) - qt)  # Poisson(q t)
            out[lo:lo + chunk] += alpha[0] * (pmf @ coeffs)
    return float(out[0]) if np.ndim(t) == 0 else out


def pdf(model: GeneralizedCoxModel, t):
    """Density of the continuous part (the atom at zero is excluded)."""
    rep = to_phase_type(model)
    return _uniformized_apply(rep, t, rep.exit_rates)


def cdf(model: GeneralizedCoxModel, t):
    """P(T <= t), including the atom at zero (cdf(0) = atom weight)."""
    rep = to_phase_type(model)
    return 1.0 - _uniformized_apply(rep, t, np.ones(rep.n))


@dataclass(frozen=True)
class MinSecondMomentReport:
    ratio_min: float
    optimal_x: tuple[tuple[float, ...], ...]
    lower_bound: float
    jstar: int


def min_second_moment(probs, lengths, mu: float) -> MinSecondMomentReport:
    """Closed-form minimum of E[T^2]/mu^2 over stage means at fixed mean.

    The Lagrange solution makes every stage mean in branch j equal to
    gamma / (2 (1 + L_j)) with gamma = 2 mu / sum_j p_j L_j / (1 + L_j);
    the bound 1 + 1/L_{j*} follows from the longest branch. Zero-length
    (atom) branches add nothing to the sum.
    """
    probs = [float(p) for p in probs]
    lengths = [int(L) for L in lengths]
    if mu <= 0.0:
        raise NonPositiveInput("mu must be positive")
    if len(probs) != len(lengths) or not probs:
        raise NonPositiveInput("need one length per probability")
    if any(L < 0 for L in lengths):
        raise NonPositiveInput("branch lengths must be nonnegative integers")
    denom = math.fsum(p * L / (1.0 + L) for p, L in zip(probs, lengths))
    if denom == 0.0:
        raise DegenerateProbs("no probability falls on a branch with stages")
    if abs(math.fsum(probs) - 1.0) > 1e-9:
        raise ProbSumInvalid("probabilities must sum to 1")
    ratio_min = 1.0 / denom
    gamma = 2.0 * mu / denom
    optimal_x = tuple(
        tuple([gamma / (2.0 * (1.0 + L))] * L) for L in lengths
    )
    jstar = max(range(len(lengths)), key=lambda j: (lengths[j], -j))
    lower_bound = 1.0 + 1.0 / lengths[jstar]
    return MinSecondMomentReport(ratio_min, optimal_x, lower_bound, jstar)
