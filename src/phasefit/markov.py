"""Absorbing-CTMC exports of a Generalized Cox model.

The exact export realizes branch routing in the initial distribution; the
approximate export is the exact chain plus an explicit pre-routing state I in
front, whose huge exit rate emulates instantaneous routing (adding exactly one
1/rate sojourn to the mean absorption time).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .analysis import _times_k_factorial, _unit_exponent, _within_float_range
from .errors import DomainError, MalformedModel, NonPositiveInput, NonPositiveRate, ReducibleChain
from .model import GeneralizedCoxModel, to_phase_type

# A row may sum to this fraction of its diagonal: the routing row of rate
# big_lambda sums to big_lambda (sum_j p_j - 1), not to an absolute 0.
ROW_SUM_TOL = 1e-12
DEFAULT_BIG_LAMBDA_FACTOR = 1e4
# Chains of more transient states than this are refused rather than built: the
# dense generator holds (n + 1)^2 rates, 128 MiB at this count.
MAX_STATES = 4096


@dataclass(frozen=True)
class CtmcExport:
    labels: tuple[str, ...]
    generator: np.ndarray
    initial: np.ndarray
    absorbing_index: int

    def __post_init__(self):
        gen = np.asarray(self.generator, dtype=float)
        init = np.asarray(self.initial, dtype=float)
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "initial", init)
        n = len(self.labels)
        if gen.shape != (n, n) or init.shape != (n,):
            raise MalformedModel("generator/initial shapes must match labels")
        # each check passes only where it holds, so NaN and inf fail it
        diag = np.diag(gen)
        row_ok = np.abs(gen.sum(axis=1)) <= ROW_SUM_TOL * np.abs(diag)
        if not (np.all(np.isfinite(gen)) and np.all(row_ok)):
            raise MalformedModel("generator rows must be finite and sum to 0")
        if not np.all(gen - np.diag(diag) >= 0.0):
            raise MalformedModel("off-diagonal rates must be nonnegative")
        zero_rows = np.nonzero(np.all(gen == 0.0, axis=1))[0]
        if len(zero_rows) != 1 or zero_rows[0] != self.absorbing_index:
            raise MalformedModel("exactly one absorbing (zero) row is required")
        if not (np.all(init >= 0.0) and abs(init.sum() - 1.0) <= 1e-9):
            raise MalformedModel("initial distribution must be nonnegative and sum to 1")

    @property
    def n_states(self) -> int:
        return len(self.labels)


def exact_absorbing_ctmc(model: GeneralizedCoxModel) -> CtmcExport:
    """Exact chain: initial mass p_j on branch j's first stage, atom mass
    directly on E; last stage of each branch exits to E at its own rate."""
    rep = to_phase_type(model)
    n = rep.n
    if n > MAX_STATES:
        raise DomainError(f"a chain of {n} transient states is more than {MAX_STATES}")
    states, succ = np.arange(n), np.arange(1, n + 1)
    succ[np.cumsum(rep.block_lengths, dtype=int) - 1] = n  # a branch's last stage: E
    gen = np.zeros((n + 1, n + 1))
    gen[states, states] = -rep.rates
    gen[states, succ] = rep.rates
    initial = np.concatenate([rep.alpha, [rep.atom0]])
    labels = tuple(f"B{j}.S{k}" for j, b in enumerate(model.branches, start=1)
                   for k in range(1, b.length + 1)) + ("E",)
    return CtmcExport(labels, gen, initial, n)


def approx_ctmc(model: GeneralizedCoxModel, big_lambda: float | None = None) -> CtmcExport:
    """Huge-rate variant: explicit state I routes to branch heads at rates
    p_j * big_lambda (atom mass straight to E); all initial mass on I.

    Defaults big_lambda to 1e4 times the largest stage rate; the exact mean
    bias introduced is 1/big_lambda.
    """
    if big_lambda is None:
        big_lambda = DEFAULT_BIG_LAMBDA_FACTOR * max(model.max_rate, 1.0)
    if not (big_lambda > 0.0 and math.isfinite(big_lambda)):
        raise NonPositiveRate(f"big_lambda must be positive and finite, got {big_lambda!r}")
    exact = exact_absorbing_ctmc(model)
    n = exact.n_states
    gen = np.zeros((n + 1, n + 1))
    gen[0, 0] = -big_lambda
    gen[0, 1:] = big_lambda * exact.initial
    gen[1:, 1:] = exact.generator
    initial = np.zeros(n + 1)
    initial[0] = 1.0
    return CtmcExport(("I",) + exact.labels, gen, initial, n)


def _check_absorbable(ctmc: CtmcExport) -> None:
    """Every state must reach the absorbing state through positive rates."""
    n = ctmc.n_states
    adj = ctmc.generator > 0.0
    reaches = np.zeros(n, dtype=bool)
    reaches[ctmc.absorbing_index] = True
    frontier = [ctmc.absorbing_index]
    while frontier:
        j = frontier.pop()
        for i in np.nonzero(adj[:, j])[0]:
            if not reaches[i]:
                reaches[i] = True
                frontier.append(int(i))
    if not reaches.all():
        missing = [ctmc.labels[i] for i in np.nonzero(~reaches)[0]]
        raise ReducibleChain(f"absorbing state unreachable from {missing}")


@_within_float_range
def absorption_time_moments(ctmc: CtmcExport, k: int) -> float:
    """k-th raw moment of the absorption time, k! a (-T)^{-k} 1 over the transient
    block; the solves after the first take the time unit of analysis._unit_exponent."""
    if k < 1:
        raise NonPositiveInput("moment order must be >= 1")
    _check_absorbable(ctmc)
    transient = [i for i in range(ctmc.n_states) if i != ctmc.absorbing_index]
    a = ctmc.initial[transient]
    if not a.any():  # no mass starts in a transient state
        return 0.0
    t_block = -ctmc.generator[np.ix_(transient, transient)]
    v = np.linalg.solve(t_block, np.ones(len(a)))  # the mean time from each state
    e = _unit_exponent(k, v[a > 0.0].max())
    v = np.ldexp(v, -e)  # in units of 2^e the rates are 2^e (-T): each solve takes 2^-e v
    for _ in range(k - 1):
        v = np.linalg.solve(t_block, np.ldexp(v, -e))
    return _times_k_factorial(k, float(a @ v), e)


def export_json(ctmc: CtmcExport) -> str:
    return json.dumps(
        {
            "labels": list(ctmc.labels),
            "generator": ctmc.generator.tolist(),
            "initial": ctmc.initial.tolist(),
            "absorbing": ctmc.absorbing_index,
        }
    )


def parse_ctmc_json(text: str) -> CtmcExport:
    """Chain from export_json's format; other data raises MalformedModel."""
    try:
        data = json.loads(text)
        fields = (tuple(data["labels"]), np.array(data["generator"], dtype=float),
                  np.array(data["initial"], dtype=float), int(data["absorbing"]))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise MalformedModel(f"malformed CTMC data: {type(exc).__name__}: {exc}") from exc
    return CtmcExport(*fields)


def export_dot(ctmc: CtmcExport) -> str:
    """GraphViz digraph: edges labeled with rates, absorbing state
    double-circled, initial probabilities shown on the node labels."""
    lines = ["digraph ctmc {", "  rankdir=LR;", "  node [shape=circle];"]
    for i, label in enumerate(ctmc.labels):
        attrs = [f'label="{label}"']
        if i == ctmc.absorbing_index:
            attrs.append("shape=doublecircle")
        if ctmc.initial[i] > 0.0:
            attrs[0] = f'label="{label}\\np0={float(ctmc.initial[i])!r}"'
        lines.append(f'  s{i} [{", ".join(attrs)}];')
    # the diagonal is never positive, so these are the edges, row by row
    for i, j in zip(*np.nonzero(ctmc.generator > 0.0)):
        lines.append(f'  s{i} -> s{j} [label="{float(ctmc.generator[i, j])!r}"];')
    lines.append("}")
    return "\n".join(lines)
