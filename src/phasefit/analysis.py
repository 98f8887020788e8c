"""Analytic quantities of a Generalized Cox model.

Laplace transform, raw moments of any order, density and CDF via
uniformization, and the closed-form minimum of the second moment over stage
means at fixed mean and routing probabilities.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateProbs,
    MomentOverflow,
    NegativeTime,
    NonPositiveInput,
    PoleEvaluation,
    ProbSumInvalid,
    StiffChain,
)
from .model import PROB_SUM_INPUT_TOL, GeneralizedCoxModel, PhaseTypeRep, to_phase_type

POLE_TOL = 1e-14
UNIFORMIZATION_TAIL = 1e-12
# A branch needing more uniformization terms than this is refused as too stiff.
MAX_UNIFORMIZATION_TERMS = 10_000_000
CHUNK = 1 << 18  # floats per block of times: its powers, chunk sums and per-time vectors, 2 MiB
_LOG_SQRT_TINY = math.log(np.finfo(float).tiny) / 2  # a block's smallest Poisson weight, as a log
# n log n - log n! below n = 64, where the series in _nlogn_minus_logfact falls short
_NLOGN_MINUS_LOGFACT = np.array([0.0] + [n * math.log(n) - math.lgamma(n + 1.0) for n in range(1, 64)])


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    variance: float
    second_moment: float
    cv2: float

    @classmethod
    def from_mean_var(cls, mean: float, variance: float) -> "MomentSummary":
        if mean < 0.0 or variance < 0.0:
            raise NonPositiveInput("mean and variance must be nonnegative")
        second = mean * mean + variance
        if not math.isfinite(second):
            raise MomentOverflow(f"second moment of mean {mean!r} and variance "
                                 f"{variance!r} exceeds the float range")
        cv2 = variance / mean / mean if mean > 0.0 else math.inf
        return cls(mean, variance, second, cv2)


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


def _within_float_range(moment):
    """Raise MomentOverflow where the moment passes the float range; there
    math.fsum raises a bare OverflowError, and plain or numpy arithmetic gives inf or nan."""
    @functools.wraps(moment)
    def checked(*args, **kwargs):
        try:
            value = moment(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise MomentOverflow(f"{moment.__name__} exceeds the float range")
        return value
    return checked


def _mean_and_terms(model: GeneralizedCoxModel) -> tuple[float, list[float]]:
    """The one pass behind mean, variance and summarize: the mean, and the fsum terms of the
    variance by the law of total variance, the stage variances p x^2 and the spread
    p (sum x - mean)^2 of the branch means, each at most the variance. Past the float range
    math.fsum raises a bare OverflowError."""
    ps, sums, terms = [], [], []
    for b in model.branches:
        p, xs = b.prob, [1.0 / r for r in b.rates]  # the stage means, summed once
        ps.append(p)
        sums.append(math.fsum(xs))
        for x in xs:
            terms.append(p * x * x)
    m = math.fsum(map(operator.mul, ps, sums))
    for p, s in zip(ps, sums):
        d = s - m
        terms.append(p * d * d)
    return m, terms


@_within_float_range
def mean(model: GeneralizedCoxModel) -> float:
    """E[T] = sum_j p_j sum_k 1/lambda_jk, from the one pass of _mean_and_terms."""
    return _mean_and_terms(model)[0]


@_within_float_range
def variance(model: GeneralizedCoxModel) -> float:
    """Var[T] by the law of total variance, the fsum of the terms of _mean_and_terms."""
    return math.fsum(_mean_and_terms(model)[1])


def second_moment(model: GeneralizedCoxModel) -> float:
    """E[T^2] = mean^2 + variance, as summarize gives it."""
    return summarize(model).second_moment


def summarize(model: GeneralizedCoxModel) -> MomentSummary:
    """Mean, variance, second moment and Cv^2 from one pass over the stage means."""
    try:
        m, terms = _mean_and_terms(model)
        return MomentSummary.from_mean_var(m, math.fsum(terms))
    except OverflowError:
        raise MomentOverflow("the mean or variance exceeds the float range") from None


@_within_float_range
@np.errstate(over="ignore", invalid="ignore")
def moment_k(model: GeneralizedCoxModel, k: int) -> float:
    """k-th raw moment. A branch's stages are independent exponentials, so its
    E[T^k] / k! is the complete homogeneous symmetric polynomial h_k of its stage
    means x; Newton's identities n h_n = sum_{j<=n} s_j h_{n-j} give it from positive
    power sums s_j = sum x^j (Macdonald, Symmetric Functions and Hall Polynomials, I.2)."""
    if k < 1:
        raise NonPositiveInput("moment order must be >= 1")
    rep = to_phase_type(model)
    branches = [(alpha[0], 1.0 / rates) for alpha, rates in rep.blocks(rep.alpha, rep.rates) if alpha[0]]
    e, terms = _unit_exponent(k, max((x.sum() for _, x in branches), default=0.0)), []
    for alpha, x in branches:
        xj = x = np.ldexp(x, -e)
        s, h = [], [1.0]
        for n in range(1, k + 1):
            s.append(float(xj.sum()))  # pairwise: s_n
            xj = xj * x
            h.append(math.fsum(s[j] * h[n - 1 - j] for j in range(n)) / n)
        terms.append(alpha * h[k])
    return _times_k_factorial(k, math.fsum(terms), e) if terms else 0.0  # else all mass at zero


def _unit_exponent(k: int, largest_mean: float) -> int:
    """Time unit 2^e for an h_k: the largest mean becomes y in [2^c / 2, 2^c), c = log2(k!)/2k rounded,
    so its branch's h_k, from y^k / k! (many stages) to y^k (one), is within about sqrt(k!) of 1."""
    return math.frexp(largest_mean)[1] - round(math.lgamma(k + 1.0) / (2.0 * k * math.log(2.0)))


def _times_k_factorial(k: int, value: float, e: int) -> float:
    """k! value 2^(k e), the k-th moment from value = E[T^k] / k! in the time unit 2^e, with no
    OverflowError on the way. A value (lost digits) or moment below the normal range is refused."""
    big, (f, e_value) = math.factorial(k), math.frexp(value)
    shift = max(big.bit_length() - 1023, 0)  # float(k!) overflows from k = 171
    moment = math.ldexp(big / (1 << shift) * f, shift + e_value + k * e)
    if value < np.finfo(float).tiny or moment < np.finfo(float).tiny:
        raise MomentOverflow(f"a moment of order {k} leaves the float range")
    return moment


def _nlogn_minus_logfact(ns: np.ndarray) -> np.ndarray:
    """n log n - log n! of whole n >= 0 with no cancelling n log n terms: from n = 64 on,
    Stirling's series, whose next term 1/1680n^7 is under 2e-16 there (Loader, 2000)."""
    m = np.maximum(ns, 64.0)
    series = m - 0.5 * np.log(2.0 * math.pi * m) - (1 / 12 - (1 / 360 - 1 / 1260 / m**2) / m**2) / m
    return np.where(ns < 64.0, _NLOGN_MINUS_LOGFACT[np.minimum(ns, 63.0).astype(np.intp)], series)


def _uniformized_apply(rep: PhaseTypeRep, t, v: np.ndarray):
    """alpha exp(T t) v at a time or array of times, uniformized per branch.

    Each branch is uniformized at its own largest rate q, so a fast branch cannot stiffen a slow
    one (Reibman & Trivedi, Comput. Oper. Res. 15(1), 1988). P = I + T/q only shifts the leading
    stages at rate q, so an equal-rate branch is exact after L terms; any other steps only the
    stages after those, until the Poisson tail at the largest q t is under UNIFORMIZATION_TAIL
    or no later coefficient passes 2^-53 max v. Blocks of consecutive times span x - c sqrt(x)
    to x + c sqrt(x) + c^2/3 over their q t = x (Chernoff and Bernstein bounds; Fox & Glynn,
    Commun. ACM 31(4), 1988); with k the largest x, a block is (x/k)^n0 e^(k-x) sum_n alpha c_n
    Pois(n; k) (x/k)^(n-n0), one exp per term and per time, summed by blocked Horner (Paterson &
    Stockmeyer, SIAM J. Comput. 2(1), 1973).
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    t_lo, t_hi = float(np.min(ts, initial=0.0)), float(np.max(ts, initial=0.0))
    if not (t_lo >= 0.0 and t_hi < math.inf):  # a NaN fails the first test
        raise NegativeTime(f"cdf and pdf need finite t >= 0, got {t_hi if t_lo >= 0.0 else t_lo!r}")
    out = np.zeros_like(ts)
    c = math.sqrt(2.0 * math.log(1e2 / UNIFORMIZATION_TAIL))  # each side drops TAIL / 100
    for alpha, rates, w in rep.blocks(rep.alpha, rep.rates, v):
        q = float(rates.max())
        j = int(np.argmax(np.append(rates, 0.0) != q))  # leading stages at rate q
        if j == len(rates):
            coeffs = w  # (P^n v)_0 = v_n
        else:
            tail = q * t_hi + c * math.sqrt(q * t_hi) + c * c / 3.0
            if not tail <= MAX_UNIFORMIZATION_TERMS:
                raise StiffChain(f"rates {rates.min():g} to {q:g} need {tail:.3g} terms")
            # (P^n v)_0 = v_n for n < j, then (P'^(n-j) v')_0, P' and v' from stage j on;
            # past ceil(tail) + 2 terms no block reaches a coefficient
            coeffs, n, floor = np.empty(max(math.ceil(tail) + 2, j)), j, 2.0**-53 * w.max()
            coeffs[:j], w, r = w[:j], w[j:].copy(), rates[j:] / q
            while n < len(coeffs) and (n % 16 or w.max() > floor):  # convex steps: max w never rises
                coeffs[n] = w[0]
                step = r[:-1] * w[1:]  # w <- P' w in place: w_k = (1 - r_k) w_k + r_k w_{k+1}
                w *= 1.0 - r
                w[:-1] += step
                n += 1
            coeffs = coeffs[:n]
        lo, rows = 0, CHUNK
        while lo < len(ts):  # q t capped at 1e300, past which no term is in reach
            tb = ts[lo:lo + rows]
            x_lo, x_hi = (q * min(float(f(tb)), 1e300 / q) for f in (np.min, np.max))
            n0 = int(min(max(x_lo - c * math.sqrt(x_lo), 0.0), len(coeffs)))
            n1 = int(min(x_hi + c * math.sqrt(x_hi) + c * c / 3.0 + 1.0, len(coeffs)))
            m, k, b = n1 - n0, x_hi or 1.0, math.isqrt(max(n1 - n0 - 1, 0)) + 1  # b = ceil(sqrt(m))
            width = b + -(-m // b) + 6  # per time: powers y^0..y^(b-1), chunk sums, 6 vectors
            if m <= 0:  # no coefficient within the window
                lo += len(tb)
            elif len(tb) > 1 and (len(tb) * width > CHUNK or  # or a factor past 1/sqrt(tiny):
                                  n0 * math.log(k) - math.lgamma(n0 + 1.0) - k < _LOG_SQRT_TINY):
                rows = len(tb) // 2
            else:  # log Pois(n; k) = n log(k/n) + (n log n - log n!) - k
                ns, qt = np.arange(n0, n1, dtype=float), q * np.minimum(tb, 1e300 / q)
                lp = ns * np.log(k / np.maximum(ns, 1.0)) + _nlogn_minus_logfact(ns) - k
                a = np.append(alpha[0] * coeffs[n0:n1] * np.exp(lp), np.zeros(-m % b))
                d, ys = k - qt, np.empty((b, len(qt)))  # x/k = 1 - d/k; n0 > 0 only if every x > 0
                y, fac = 1.0 - d / k, np.exp(d + n0 * np.log1p(-d / k)) if n0 else np.exp(d)
                ys[0] = 1.0
                for i in range(1, b):
                    np.multiply(ys[i - 1], y, out=ys[i])
                sums, yb = a.reshape(-1, b) @ ys, ys[-1] * y  # chunk i: a_(n0 + i b + j) y^j over j
                for i in range(len(sums) - 2, -1, -1):  # Horner in y^b over the chunks
                    sums[-1] *= yb
                    sums[-1] += sums[i]
                out[lo:lo + len(qt)] += sums[-1] * fac  # times (x/k)^n0 e^(k-x)
                lo, rows = lo + len(qt), max(1, CHUNK // width)
    return float(out[0]) if np.ndim(t) == 0 else out


def pdf(model: GeneralizedCoxModel, t):
    """Density of the continuous part (the atom at zero is excluded)."""
    rep = to_phase_type(model)
    return _uniformized_apply(rep, t, rep.exit_rates)


def cdf(model: GeneralizedCoxModel, t):
    """P(T <= t), including the atom at zero (cdf(0) = atom weight)."""
    rep = to_phase_type(model)
    # clipped: branch probabilities that sum past 1 by rounding give -2.2e-16 at t = 0
    p = np.clip(1.0 - _uniformized_apply(rep, t, np.ones(rep.n)), 0.0, 1.0)
    return p if np.ndim(t) else float(p)


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
    if not (mu > 0.0 and math.isfinite(mu)):
        raise NonPositiveInput(f"mu must be positive and finite, got {mu!r}")
    if len(probs) != len(lengths) or not probs:
        raise NonPositiveInput("need one length per probability")
    if any(L < 0 for L in lengths):
        raise NonPositiveInput("branch lengths must be nonnegative integers")
    if not all(0.0 <= p <= 1.0 for p in probs):  # NaN fails it too
        raise ProbSumInvalid(f"probabilities must lie in [0, 1], got {probs!r}")
    denom = math.fsum(p * L / (1.0 + L) for p, L in zip(probs, lengths))
    if denom == 0.0:
        raise DegenerateProbs("no probability falls on a branch with stages")
    if abs(math.fsum(probs) - 1.0) > PROB_SUM_INPUT_TOL:
        raise ProbSumInvalid("probabilities must sum to 1")
    ratio_min = 1.0 / denom
    gamma = 2.0 * mu / denom
    optimal_x = tuple(
        tuple([gamma / (2.0 * (1.0 + L))] * L) for L in lengths
    )
    jstar = max(range(len(lengths)), key=lambda j: (lengths[j], -j))
    lower_bound = 1.0 + 1.0 / lengths[jstar]
    return MinSecondMomentReport(ratio_min, optimal_x, lower_bound, jstar)
