"""Random variate generation for Generalized Cox models.

Inverse transform: pick a branch with one uniform, then sum one exponential
per stage, each -ln(U)/lambda with U drawn from (0, 1] so the logarithm is
always finite. sample_n is the one sampler; a single draw is sample_n(., 1).
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import DomainError, InsufficientData, MomentOverflow, NegativeCount, NonPositiveInput
from .model import GeneralizedCoxModel

GENERATOR_NAME = "pcg64"
# Stage uniforms per sample_n chunk: one 256 KiB buffer, reused chunk after chunk.
CHUNK = 1 << 15
# sample_n splits a call into one part per PARALLEL_MIN stage uniforms, on at
# most WORKERS threads: one per CPU the process may run on.
PARALLEL_MIN = 1 << 18
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# empirical_check passes a moment within this many standard errors.
N_SE = 4.0


class SamplerState:
    """Deterministic seeded uniform stream on (0, 1].

    Single-owner mutable. :func:`split_seeds` derives independent streams;
    sample_n splits this one stream, jumping a copy ahead to each part.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise NonPositiveInput(f"seed must be nonnegative, got {seed!r}")
        self.counter = 0
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def uniforms(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n uniforms on (0, 1], written to out[:n] when out is given."""
        u = self._rng.random(n, out=None if out is None else out[:n])
        self.counter += n  # after the draw, so a failed one leaves counter in step
        return np.subtract(1.0, u, out=u)

    def skip(self, n: int) -> SamplerState:
        """Pass over the next n uniforms, or back over -n of them, in O(log n) (PCG64 is
        an LCG of period 2^128); returns self."""
        self.counter += n
        self._rng.bit_generator.advance(int(n) % (1 << 128))
        return self


def split_seeds(seed: int, n: int) -> list[SamplerState]:
    """n sampler states with guaranteed-distinct streams derived from seed."""
    if seed < 0:
        raise NonPositiveInput(f"seed must be nonnegative, got {seed!r}")
    if n < 0:
        raise NegativeCount(f"stream count must be nonnegative, got {n}")
    children = np.random.SeedSequence(seed).spawn(n)
    return [SamplerState(int(c.generate_state(1, np.uint64)[0])) for c in children]


def sample_n(model: GeneralizedCoxModel, state: SamplerState, n: int) -> np.ndarray:
    """n draws, vectorized: n branch-selection uniforms first (skipped for one branch),
    then each draw's stage uniforms in draw order. Helper threads fill the parts after the
    first from copies of the stream jumped ahead, so no stream, counter or draw changes."""
    if n < 0:
        raise NegativeCount(f"draw count must be nonnegative, got {n}")
    start = state.counter
    try:
        branches = model.branches
        lengths = np.array([b.length for b in branches])
        L, idx, offsets, who = int(lengths.max()), None, None, None  # idx: each draw's branch
        if len(branches) == 1:
            state.skip(n)
        else:  # idx = min(searchsorted(cum, u), B - 1) a cut at a time: faster below about 150
            # branches (1e6 draws), in the smallest dtype; accumulate sums as cumsum does
            u, idx = state.uniforms(n), np.zeros(n, dtype=np.min_scalar_type(len(branches)))
            for cut in itertools.accumulate(b.prob for b in branches[:-1]):
                idx += u > cut
            del u
        out = np.zeros(n)  # allocated after u: the two would double the peak
        # _fill fills out a unit at a time: unit i's stage uniforms start at starts[i], L i
        # without offsets. Rates are negated: ln U / -rate has the bits of -ln U / rate
        if idx is None:  # a unit is a draw; rates: the branch's, tiled over a chunk
            rates = np.tile(np.negative(branches[0].rates), min(n, max(1, CHUNK // max(1, L))))
        elif L <= 1:  # a unit is a draw with a stage, draw who[i] where some have none
            rates = np.negative([b.rates[0] if b.length else 1.0 for b in branches])  # by idx
            if not lengths.all():  # draws with a stage: idx != j for each atom j, and no gather
                keep = (idx != j for j in np.flatnonzero(lengths == 0).tolist())  # uint8 compares
                idx = idx[who := np.flatnonzero(functools.reduce(np.logical_and, keep))]
        else:  # a unit is a draw; rates: (j, stage rates) of each branch j with stages
            rates = [(j, np.negative(b.rates)) for j, b in enumerate(branches) if b.length]
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(lengths[idx], out=offsets[1:])
        units = n if who is None else len(who)
        starts = range(0, units * L + 1, L or 1) if offsets is None else offsets
        total = int(starts[-1])
        parts = max(1, min(WORKERS, total // PARALLEL_MIN))
        # part p: units cuts[p]..cuts[p+1]-1, about total / parts stage uniforms each
        cuts = [0] + [bisect_left(starts, total * p // parts) for p in range(1, parts)] + [units]
        args = (L, rates, idx, offsets, who, out)
        if parts == 1 and total:  # with no stage uniforms, every draw is 0
            _fill(state, 0, units, *args)
        elif parts > 1:  # imported here, as it imports logging (10 ms) that no other call needs
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(parts - 1) as pool:  # leaving the block joins every helper
                helpers = [pool.submit(_fill, copy.deepcopy(state).skip(int(starts[lo])), lo, hi,
                                       *args) for lo, hi in zip(cuts[1:], cuts[2:])]
                _fill(state, 0, cuts[1], *args)
                for helper in helpers:
                    helper.result()  # raises what the helper raised
            state.skip(total - int(starts[cuts[1]]))  # past the helpers' parts
        return out
    except MemoryError:  # a per-draw array: refused, with the stream back where it was
        state.skip(start - state.counter)
        raise DomainError(f"{n} draws do not fit in memory") from None


def _stage_sums(block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows summed in np.add.reduceat's order, a0 + (a1 + ...), on which seeded draws depend."""
    if block.shape[1] >= 9:  # numpy adds a1, a2, ... pairwise from eight on, below one by one
        return np.add.reduceat(block.ravel(), np.arange(0, block.size, block.shape[1]), out=out)
    for k in range(2, block.shape[1]):
        np.add(block[:, 1], block[:, k], out=block[:, 1])
    return np.add(block[:, 0], block[:, 1] if block.shape[1] > 1 else -0.0, out=out)  # x + -0.0: x


@np.errstate(over="ignore")  # an inf draw raises MomentOverflow below
def _fill(state, lo: int, hi: int, L: int, rates, idx, offsets, who, out) -> None:
    """Units lo..hi-1 of sample_n (see there) from a state at their first stage uniform, a
    chunk of at most CHUNK stage uniforms (or one unit) at a time."""
    buf = np.empty(min((hi - lo) * L if offsets is None else offsets[hi] - offsets[lo], max(CHUNK, L)))
    while lo < hi:
        top = min(hi, lo + max(1, CHUNK // L) if offsets is None else
                  max(bisect_right(offsets, offsets[lo] + CHUNK) - 1, lo + 1))
        m = (top - lo) * L if offsets is None else int(offsets[top] - offsets[lo])
        u = np.log(state.uniforms(m, buf), out=buf[:m])
        if offsets is not None:
            for j, r in rates:  # no rows: an empty gather, divide and sum
                rows = np.flatnonzero(idx[lo:top] == j)
                block = u[(offsets[lo:top][rows] - offsets[lo])[:, None] + np.arange(len(r))]
                out[lo:top][rows] = _stage_sums(np.divide(block, r, out=block))
        elif who is not None:  # onto the draws with a stage
            out[who[lo:top]] = np.divide(u, rates[idx[lo:top]], out=u)
        elif L == 1:  # straight into out
            np.divide(u, rates[:m] if idx is None else rates[idx[lo:top]], out=out[lo:top])
        else:
            _stage_sums(np.divide(u, rates[:m], out=u).reshape(-1, L), out=out[lo:top])
        if not np.isfinite(out[lo:top] if who is None else u).all():
            raise MomentOverflow("a draw exceeds the float range")
        lo = top


@dataclass(frozen=True)
class EmpiricalReport:
    n: int
    sample_mean: float
    sample_variance: float
    se_mean: float
    se_variance: float
    zero_fraction: float
    analytic_mean: float
    analytic_variance: float
    mean_ok: bool
    variance_ok: bool

    @property
    def passed(self) -> bool:
        return self.mean_ok and self.variance_ok


def empirical_check(model: GeneralizedCoxModel, n: int, seed: int,
                    expected_mean: float | None = None,
                    expected_variance: float | None = None) -> EmpiricalReport:
    """Draw n variates and compare sample mean/variance against the model's
    analytic values (or explicit external targets) at an N_SE-standard-error
    threshold."""
    if n < 2:
        raise InsufficientData("empirical check needs n >= 2")
    # the targets first: a model whose moments overflow is refused undrawn
    a_mean = analysis.mean(model) if expected_mean is None else expected_mean
    a_var = analysis.variance(model) if expected_variance is None else expected_variance
    if not (0.0 <= a_mean < math.inf and 0.0 <= a_var < math.inf):
        raise NonPositiveInput(f"targets must be finite and nonnegative, got {a_mean!r}, {a_var!r}")
    xs = sample_n(model, SamplerState(seed), n)
    # moments of xs / 2^p, p its largest draw's binary exponent, then scaled back:
    # exact, and in range wherever s2 is (the fourth moment in units of s2)
    p = math.frexp(float(xs.max()))[1]
    ys = np.ldexp(xs, -p)
    m, s2 = float(ys.mean()), float(ys.var(ddof=1))
    kurt = float(np.mean(((ys - m) ** 2 / s2) ** 2)) if s2 > 0.0 else 1.0
    if math.frexp(s2)[1] + 2 * p > 1024:  # s2 scaled back passes the float range
        raise MomentOverflow("the sample variance exceeds the float range")
    m, s2 = math.ldexp(m, p), math.ldexp(s2, 2 * p)
    se_mean = math.sqrt(s2 / n)
    se_var = s2 * math.sqrt(max(kurt - 1.0, 0.0) / n)
    return EmpiricalReport(
        n=n,
        sample_mean=m,
        sample_variance=s2,
        se_mean=se_mean,
        se_variance=se_var,
        zero_fraction=float(np.mean(xs == 0.0)),
        analytic_mean=a_mean,
        analytic_variance=a_var,
        mean_ok=abs(m - a_mean) <= N_SE * se_mean,
        variance_ok=abs(s2 - a_var) <= N_SE * se_var,
    )
