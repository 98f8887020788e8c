"""Random variate generation for Generalized Cox models.

Inverse transform: pick a branch with one uniform, then sum one exponential
per stage, each -ln(U)/lambda with U drawn from (0, 1] so the logarithm is
always finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import InsufficientData, NegativeCount, NonPositiveRate
from .model import GeneralizedCoxModel

GENERATOR_NAME = "pcg64"
# Draws per sample_n chunk; its stage-uniform buffer holds at most CHUNK
# times the longest branch's stage count.
CHUNK = 1 << 16


class SamplerState:
    """Deterministic seeded uniform stream on (0, 1].

    Single-owner mutable; parallel work should use :func:`split_seeds` to
    derive independent streams.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.counter = 0
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self) -> float:
        """One uniform on (0, 1]."""
        self.counter += 1
        return 1.0 - self._rng.random()

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms on (0, 1]."""
        self.counter += n
        return 1.0 - self._rng.random(n)

    @property
    def generator_name(self) -> str:
        return GENERATOR_NAME


def split_seeds(seed: int, n: int) -> list[SamplerState]:
    """n sampler states with guaranteed-distinct streams derived from seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [SamplerState(int(c.generate_state(1, np.uint64)[0])) for c in children]


def sample_exponential(state: SamplerState, rate: float) -> float:
    """-ln(U)/rate with U on (0, 1]."""
    if rate <= 0.0:
        raise NonPositiveRate(f"rate must be positive, got {rate}")
    return -math.log(state.uniform()) / rate


def _pick_branch(model: GeneralizedCoxModel, u: float) -> int:
    acc = 0.0
    last = len(model.branches) - 1
    for j, b in enumerate(model.branches):
        acc += b.prob
        if u <= acc:
            return j
    return last


def sample(model: GeneralizedCoxModel, state: SamplerState) -> float:
    """One draw: branch-selection uniform, then one uniform per stage."""
    j = _pick_branch(model, state.uniform())
    branch = model.branches[j]
    if branch.instantaneous:
        return 0.0
    t = 0.0
    for rate in branch.rates:
        t += -math.log(state.uniform()) / rate
    return t


def sample_n(model: GeneralizedCoxModel, state: SamplerState, n: int) -> np.ndarray:
    """n draws, vectorized.

    Consumes n branch-selection uniforms first, then the per-stage uniforms
    grouped consecutively per draw in draw order (a block layout of the
    stream; per-draw results match the distribution of repeated sample()).

    The draws are made CHUNK at a time, each chunk taking the next stage
    uniforms of that layout, so chunking changes neither the stream, nor
    state.counter, nor any draw; it only bounds the working memory.
    """
    if n < 0:
        raise NegativeCount(f"draw count must be nonnegative, got {n}")
    cum = np.cumsum([b.prob for b in model.branches])
    idx = np.minimum(np.searchsorted(cum, state.uniforms(n), side="left"), len(cum) - 1)
    lengths = np.array([b.length for b in model.branches])
    out = np.zeros(n)
    for lo in range(0, n, CHUNK):
        chunk_idx = idx[lo:lo + CHUNK]
        draw_len = lengths[chunk_idx]
        stage_times = state.uniforms(int(draw_len.sum()))
        np.log(stage_times, out=stage_times)
        np.negative(stage_times, out=stage_times)
        starts = np.cumsum(draw_len) - draw_len
        for j, b in enumerate(model.branches):
            if b.length == 0:
                continue
            rows = np.flatnonzero(chunk_idx == j)
            if rows.size == len(chunk_idx):
                block = stage_times.reshape(rows.size, b.length)
            else:
                block = stage_times[starts[rows, None] + np.arange(b.length)]
            block /= b.rates
            # reduceat adds a0 + (a1 + ...), in partial sums from nine stages
            # on; seeded draws depend on that order for L >= 3
            out[lo + rows] = np.add.reduceat(block.ravel(), np.arange(0, block.size, b.length))
    return out


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
                    n_se: float = 4.0,
                    expected_mean: float | None = None,
                    expected_variance: float | None = None) -> EmpiricalReport:
    """Draw n variates and compare sample mean/variance against the model's
    analytic values (or explicit external targets) at an n_se-standard-error
    threshold."""
    if n < 2:
        raise InsufficientData("empirical check needs n >= 2")
    xs = sample_n(model, SamplerState(seed), n)
    m = float(xs.mean())
    s2 = float(xs.var(ddof=1))
    centered = xs - m
    m4 = float(np.mean(centered**4))
    se_mean = math.sqrt(s2 / n)
    se_var = math.sqrt(max(m4 - s2 * s2, 0.0) / n)
    a_mean = analysis.mean(model) if expected_mean is None else expected_mean
    a_var = analysis.variance(model) if expected_variance is None else expected_variance
    return EmpiricalReport(
        n=n,
        sample_mean=m,
        sample_variance=s2,
        se_mean=se_mean,
        se_variance=se_var,
        zero_fraction=float(np.mean(xs == 0.0)),
        analytic_mean=a_mean,
        analytic_variance=a_var,
        mean_ok=abs(m - a_mean) <= n_se * se_mean,
        variance_ok=abs(s2 - a_var) <= n_se * se_var,
    )
