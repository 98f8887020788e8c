"""Core representation of Generalized Cox distributions.

A model is a probabilistic choice among parallel branches; each branch is a
series of exponential stages identified by its rates. An empty rate list
denotes an instantaneous branch (point mass at zero).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyModel,
    MalformedModel,
    NonPositiveRate,
    ProbSumInvalid,
    UnsupportedShape,
)

# Input probabilities may deviate from summing to 1 by this much (text
# round-trips); the stored model is renormalized to 1e-12.
PROB_SUM_INPUT_TOL = 1e-9
PROB_SUM_STORED_TOL = 1e-12


@dataclass(frozen=True)
class Branch:
    """One branch: routing probability plus ordered exponential stage rates."""

    prob: float
    rates: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(self, "prob", float(self.prob))
        if not (0.0 <= self.prob <= 1.0):
            raise ProbSumInvalid(f"branch probability {self.prob} outside [0, 1]")
        for r in self.rates:
            if not (r > 0.0 and math.isfinite(r)):
                raise NonPositiveRate(f"stage rate {r} must be positive and finite")

    @property
    def length(self) -> int:
        return len(self.rates)

    @property
    def instantaneous(self) -> bool:
        return not self.rates


@dataclass(frozen=True)
class GeneralizedCoxModel:
    """Validated, immutable Generalized Cox distribution."""

    branches: tuple[Branch, ...]

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise EmptyModel("model needs at least one branch")
        total = math.fsum(b.prob for b in self.branches)
        if abs(total - 1.0) > PROB_SUM_INPUT_TOL:
            raise ProbSumInvalid(f"branch probabilities sum to {total}, not 1")
        if abs(total - 1.0) > PROB_SUM_STORED_TOL:
            # Renormalize only small input drift.
            object.__setattr__(
                self,
                "branches",
                tuple(Branch(b.prob / total, b.rates) for b in self.branches),
            )

    @property
    def atom_weight(self) -> float:
        """Probability mass of an exactly-zero delay."""
        return math.fsum(b.prob for b in self.branches if b.instantaneous)

    @property
    def n_transient(self) -> int:
        return sum(b.length for b in self.branches)

    @property
    def max_rate(self) -> float:
        return max((r for b in self.branches for r in b.rates), default=0.0)


def new_model(branches) -> GeneralizedCoxModel:
    """Build a validated model from an iterable of Branch (or (prob, rates))."""
    norm = []
    for b in branches:
        if not isinstance(b, Branch):
            prob, rates = b
            b = Branch(prob, tuple(rates))
        norm.append(b)
    return GeneralizedCoxModel(tuple(norm))


def exponential_model(rate: float) -> GeneralizedCoxModel:
    """Single-branch, single-stage exponential."""
    return new_model([Branch(1.0, (rate,))])


@dataclass(frozen=True)
class ClassicalCoxSpec:
    """Classical Cox chain: per-stage abandonment probabilities and rates.

    ``abandon_probs[i]`` is the probability of leaving after stage i
    (``abandon_probs[0]`` before entering stage 1); the final probability
    p_N = 1 is implicit.
    """

    abandon_probs: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "abandon_probs", tuple(float(p) for p in self.abandon_probs))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        for p in self.abandon_probs:
            if not (0.0 <= p <= 1.0):
                raise ProbSumInvalid(f"abandonment probability {p} outside [0, 1]")
        for r in self.rates:
            if not (r > 0.0 and math.isfinite(r)):
                raise NonPositiveRate(f"stage rate {r} must be positive and finite")
        if len(self.abandon_probs) != len(self.rates):
            raise UnsupportedShape(
                "need one abandonment probability per stage (p_0..p_{N-1})"
            )


def from_classical_cox(spec: ClassicalCoxSpec) -> GeneralizedCoxModel:
    """Rewrite a classical Cox chain as routed parallel branches.

    Branch j carries the first j stage rates with routing probability
    q_j = p_j * prod_{k<j}(1 - p_k), q_0 = p_0 and p_N = 1. Branches with
    exactly zero probability are dropped (they are unreachable).
    """
    n = len(spec.rates)
    probs = list(spec.abandon_probs) + [1.0]
    branches = []
    surv = 1.0  # prod_{k<j}(1 - p_k)
    for j in range(n + 1):
        q = probs[j] * surv
        if q > 0.0:
            branches.append(Branch(q, spec.rates[:j]))
        surv *= 1.0 - probs[j]
    return new_model(branches)


@dataclass(frozen=True)
class PhaseTypeRep:
    """Canonical analytic form: atom at zero, initial vector, stage rates.

    The subgenerator is block-bidiagonal, one upper-bidiagonal block per
    non-instantaneous branch, so it is stored as the flat stage ``rates`` in
    state order plus the block sizes ``block_lengths``. Within a block,
    state k moves to k + 1 at rate ``rates[k]``; the last state of a block
    is absorbed at its own rate.
    """

    atom0: float
    alpha: np.ndarray
    rates: np.ndarray
    block_lengths: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.alpha)

    def blocks(self, *arrays):
        """Per-branch views of state-indexed arrays, one tuple per block."""
        pos = 0
        for length in self.block_lengths:
            yield tuple(x[pos:pos + length] for x in arrays)
            pos += length

    @property
    def exit_rates(self) -> np.ndarray:
        """Absorption rate out of each transient state (-T @ 1)."""
        exits = np.zeros(self.n)
        last = np.cumsum(self.block_lengths, dtype=int) - 1
        exits[last] = self.rates[last]
        return exits

    @property
    def subgen(self) -> np.ndarray:
        """The dense n x n subgenerator T, built only for CTMC export."""
        t = np.diag(-self.rates)
        inner = np.flatnonzero(self.exit_rates == 0.0)  # states that move on
        t[inner, inner + 1] = self.rates[inner]
        return t


def to_phase_type(model: GeneralizedCoxModel) -> PhaseTypeRep:
    """Exact phase-type form: instantaneous branches become the atom at zero,
    each remaining branch becomes a chain of states absorbed from its last
    stage at that stage's own rate. O(n) in the number of stages."""
    chains = [b for b in model.branches if not b.instantaneous]
    lengths = tuple(b.length for b in chains)
    n = sum(lengths)
    rates = np.fromiter((r for b in chains for r in b.rates), float, n)
    alpha = np.zeros(n)
    pos = 0
    for b in chains:
        alpha[pos] = b.prob
        pos += b.length
    return PhaseTypeRep(model.atom_weight, alpha, rates, lengths)


@dataclass(frozen=True)
class CoxFeasibility:
    """Result of testing whether a 2-branch mixture admits a classical Cox
    layout with the same rates."""

    feasible: bool
    q1: float
    q2: float


def cox_routing_feasible(model: GeneralizedCoxModel) -> CoxFeasibility:
    """Check Cox-representability of a two-branch single-stage mixture.

    For branches (p1, [l1]) and (p2, [l2]) the classical chain visiting l1
    then l2 reproduces the transform iff q1 = p1 + p2*l2/l1 <= 1; branch
    order fixes which rate the chain visits first.
    """
    if len(model.branches) != 2 or any(b.length != 1 for b in model.branches):
        raise UnsupportedShape(
            "feasibility test defined only for two single-stage branches"
        )
    (b1, b2) = model.branches
    l1, l2 = b1.rates[0], b2.rates[0]
    q1 = b1.prob + b2.prob * l2 / l1
    return CoxFeasibility(q1 <= 1.0, q1, 1.0 - q1)


# --- JSON interchange (canonical CLI format) ---

def model_to_dict(model: GeneralizedCoxModel) -> dict:
    return {
        "branches": [
            {"prob": b.prob, "rates": list(b.rates)} for b in model.branches
        ]
    }


def model_to_json(model: GeneralizedCoxModel) -> str:
    return json.dumps(model_to_dict(model))


def model_from_dict(data: dict) -> GeneralizedCoxModel:
    """Model from the interchange format; data of another shape raises
    MalformedModel."""
    branches = data.get("branches") if isinstance(data, dict) else None
    if not isinstance(branches, list):
        raise MalformedModel("model data needs a list under 'branches'")
    try:
        return new_model(Branch(b["prob"], tuple(b.get("rates", ()))) for b in branches)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise MalformedModel(f"malformed branch: {type(exc).__name__}: {exc}") from exc


def model_from_json(text: str) -> GeneralizedCoxModel:
    return model_from_dict(json.loads(text))
