"""Random variate generation for Generalized Cox models.

Inverse transform: pick a branch with one uniform, then sum one exponential
per stage, each -ln(U)/lambda with U drawn from (0, 1] so the logarithm is
always finite. sample_n is the one sampler; a single draw is sample_n(., 1).
"""

from __future__ import annotations

import copy
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import InsufficientData, MomentOverflow, NegativeCount, NonPositiveInput
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
        self.counter = 0
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def uniforms(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n uniforms on (0, 1], written to out[:n] when out is given."""
        self.counter += n
        u = self._rng.random(n, out=None if out is None else out[:n])
        return np.subtract(1.0, u, out=u)

    def skip(self, n: int) -> SamplerState:
        """Pass over the next n uniforms in O(log n) (PCG64 is an LCG); returns self."""
        self.counter += n
        self._rng.bit_generator.advance(n)
        return self


def split_seeds(seed: int, n: int) -> list[SamplerState]:
    """n sampler states with guaranteed-distinct streams derived from seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [SamplerState(int(c.generate_state(1, np.uint64)[0])) for c in children]


def sample_n(model: GeneralizedCoxModel, state: SamplerState, n: int) -> np.ndarray:
    """n draws, vectorized: n branch-selection uniforms first (skipped for one branch),
    then each draw's stage uniforms in draw order. Helper threads fill the parts after the
    first from copies of the stream jumped ahead, so no stream, counter or draw changes."""
    if n < 0:
        raise NegativeCount(f"draw count must be nonnegative, got {n}")
    branches = model.branches
    if len(branches) == 1:  # idx: each draw's branch; offsets: stage uniforms before each draw
        idx, offsets = None, np.arange(n + 1, dtype=np.int64) * branches[0].length
        state.skip(n)
    else:  # idx = min(searchsorted(cum, u), B - 1) a cut at a time: faster below about 150
        # branches (1e6 draws), in the smallest dtype; accumulate sums as cumsum does
        u, idx = state.uniforms(n), np.zeros(n, dtype=np.min_scalar_type(len(branches)))
        for cut in itertools.accumulate(b.prob for b in branches[:-1]):
            idx += u > cut
        del u
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.array([b.length for b in branches])[idx], out=offsets[1:])
    total, out = int(offsets[-1]), np.zeros(n)
    # (j, negated stage rates) of each branch with stages: ln U / -rate has the bits of -ln U / rate
    stages = [(j, np.negative(b.rates)) for j, b in enumerate(branches) if b.length]
    parts = max(1, min(WORKERS, total // PARALLEL_MIN))
    # part p: draws cuts[p]..cuts[p+1]-1, about total / parts stage uniforms each
    cuts = [0] + [int(np.searchsorted(offsets, total * p // parts)) for p in range(1, parts)] + [n]
    if parts == 1:
        _fill(state, 0, n, stages, idx, offsets, out)
    else:  # imported here, as it imports logging (10 ms) that no other call needs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(parts - 1) as pool:  # leaving the block joins every helper
            helpers = [pool.submit(_fill, copy.deepcopy(state).skip(int(offsets[lo])), lo, hi,
                                   stages, idx, offsets, out) for lo, hi in zip(cuts[1:], cuts[2:])]
            _fill(state, 0, cuts[1], stages, idx, offsets, out)
            for helper in helpers:
                helper.result()  # raises what the helper raised
        state.skip(total - int(offsets[cuts[1]]))  # past the helpers' parts
    return out


@np.errstate(over="ignore")  # an inf draw raises MomentOverflow below
def _fill(state, lo: int, hi: int, stages, idx, offsets, out) -> None:
    """Draws lo..hi-1 of sample_n from a state at their first stage uniform, a chunk of at
    most CHUNK stage uniforms (or one draw) at a time."""
    buf = np.empty(min(offsets[hi] - offsets[lo], max([CHUNK] + [len(r) for _, r in stages])))
    while lo < hi:
        top = min(hi, max(int(np.searchsorted(offsets, offsets[lo] + CHUNK, "right")) - 1, lo + 1))
        m = int(offsets[top] - offsets[lo])
        u = np.log(state.uniforms(m, buf), out=buf[:m])
        for j, r in stages:
            rows = slice(None) if idx is None else np.flatnonzero(idx[lo:top] == j)
            if idx is None or rows.size == top - lo:  # every draw of the chunk is on branch j
                block = u.reshape(-1, len(r))
            elif rows.size:
                block = u[(offsets[lo:top][rows] - offsets[lo])[:, None] + np.arange(len(r))]
            else:
                continue
            np.divide(block, r, out=block)
            # reduceat adds a0 + (a1 + ...), in partial sums from nine stages
            # on; seeded draws depend on that order for L >= 3. One stage: a copy
            out[lo:top][rows] = block.ravel() if len(r) == 1 else np.add.reduceat(
                block.ravel(), np.arange(0, block.size, len(r)))
        if not np.isfinite(out[lo:top]).all():
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
