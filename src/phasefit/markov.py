"""Absorbing-CTMC exports of a Generalized Cox model.

The exact export realizes branch routing in the initial distribution; the
approximate export is the exact chain plus an explicit pre-routing state I in
front, whose huge exit rate emulates instantaneous routing (adding exactly one
1/rate sojourn to the mean absorption time).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .analysis import _times_k_factorial, _unit_exponent, _within_float_range
from .errors import DomainError, MalformedModel, NonPositiveInput, NonPositiveRate, ReducibleChain
from .model import GeneralizedCoxModel, to_phase_type

# A row may sum to this fraction of its diagonal: the routing row of rate
# big_lambda sums to big_lambda (sum_j p_j - 1), not to an absolute 0.
ROW_SUM_TOL = 1e-12
DEFAULT_BIG_LAMBDA_FACTOR = 1e4
# A dense generator (the generator view, the ctmc-json text and the solve of a chain with a cycle)
# is refused past this many transient states: it holds (n + 1)^2 rates, 128 MiB at this count.
MAX_STATES = 4096
# A generator's off-diagonal entries that are not +0.0, in row-major order.
EDGE = np.dtype([("source", np.intp), ("target", np.intp), ("rate", float)])
_PUNCT = re.compile(r"[ \t\n\r]*([][{}:,])[ \t\n\r]*")


@dataclass(frozen=True, init=False)
class CtmcExport:
    """A validated absorbing CTMC: its edges and each state's exit rate, the negated diagonal (so
    -0.0 for a +0.0). Given a dense generator=, both come from it. An argument that does not
    convert, or a list of rates or probabilities that holds anything but ints and floats, raises
    MalformedModel. The generator is a dense view, built on demand.
    The arrays must not be changed in place: one search back from E, which orders the states and
    finds a cycle, is kept per export; a state it does not reach raises on every call."""

    labels: tuple[str, ...]
    edges: np.ndarray
    exits: np.ndarray
    initial: np.ndarray
    absorbing_index: int

    @np.errstate(over="ignore")  # a sum past the float range is inf, and fails its check
    def __init__(self, labels, edges, exits, initial, absorbing_index, generator=None):
        if not (isinstance(labels, (list, tuple)) and all(isinstance(s, str) for s in labels)):
            raise MalformedModel("labels must be a list of strings")
        if isinstance(absorbing_index, bool) or not isinstance(absorbing_index, (int, np.integer)):
            raise MalformedModel("the absorbing index must be an integer")
        labels, n = tuple(labels), len(labels)
        try:
            if generator is not None:
                edges, exits = _sparse(generator)
            edges, exits, init = np.asarray(edges, EDGE), _floats(exits), _floats(initial)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedModel(f"malformed CTMC data: {type(exc).__name__}: {exc}") from exc
        if exits.shape != (n,) or init.shape != (n,) or edges.ndim != 1:
            raise MalformedModel("generator/initial shapes must match labels")
        src, dst, rate = edges["source"], edges["target"], edges["rate"]
        if not (np.all((src != dst) & (0 <= np.minimum(src, dst)) & (np.maximum(src, dst) < n))
                and np.all(np.diff(src * n + dst) > 0)):
            raise MalformedModel("edges must be off-diagonal, in row-major order")
        # each check passes only where it holds, so NaN and inf fail it
        if not (np.all(np.isfinite(rate)) and np.all(np.isfinite(exits)) and np.all(
                np.abs(np.bincount(src, rate, n) - exits) <= ROW_SUM_TOL * np.abs(exits))):
            raise MalformedModel("generator rows must be finite and sum to 0")
        if not (np.all(rate >= 0.0) and np.all(rate.view(np.int64))):  # all-zero bits: +0.0
            raise MalformedModel("edge rates must be nonnegative, and not +0.0")
        zero_rows = np.flatnonzero(exits == 0.0)  # by the row sums, only zero rates leave these
        if len(zero_rows) != 1 or zero_rows[0] != absorbing_index:
            raise MalformedModel("exactly one absorbing (zero) row is required")
        if not (np.all(init >= 0.0) and abs(init.sum() - 1.0) <= 1e-9):
            raise MalformedModel("initial distribution must be nonnegative and sum to 1")
        for name, value in zip(("labels", "edges", "exits", "initial", "absorbing_index"),
                               (labels, edges, exits, init, int(absorbing_index))):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return type(other) is CtmcExport and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in dataclasses.fields(self))

    @property
    def n_states(self) -> int:
        return len(self.labels)

    @property
    def generator(self) -> np.ndarray:
        """The dense generator, built afresh on each read; refused past the cap."""
        _refuse_past_the_cap(self, "a dense generator")
        n = self.n_states
        gen = np.zeros((n, n))
        gen[self.edges["source"], self.edges["target"]] = self.edges["rate"]
        gen[np.diag_indices(n)] = -self.exits
        return gen

    @functools.cached_property
    def _plan(self) -> list[tuple[int, float, list[tuple[int, float]]]] | None:
        """Each transient state, its exit rate and its positive edges, each after the states its
        edges lead to: the reversed finishing order of a depth-first search from E back over the
        positive edges. None for a cycle; a state never reached raises ReducibleChain."""
        n, exits, edges = self.n_states, self.exits.tolist(), self.edges[self.edges["rate"] > 0.0]
        sources, targets = edges["source"].tolist(), edges["target"].tolist()
        bounds = np.searchsorted(edges["source"], np.arange(n + 1)).tolist()
        pairs = list(zip(targets, edges["rate"].tolist()))
        preds = [[] for _ in range(n)]
        for i, j in zip(sources, targets):
            preds[j].append(i)
        mark, finished, cyclic, stack = [0] * n, [], False, [self.absorbing_index]
        while stack:  # i enters the search's path, ~i leaves it; mark: 1 on the path, 2 left
            i = stack.pop()
            if i < 0:
                finished.append(~i)
                mark[~i] = 2
            elif mark[i]:
                cyclic = cyclic or mark[i] == 1
            else:
                mark[i] = 1
                stack += [~i, *preds[i]]
        if unreached := [label for label, m in zip(self.labels, mark) if not m]:
            raise ReducibleChain(f"absorbing state unreachable from {unreached}")
        return None if cyclic else [(i, exits[i], pairs[bounds[i]:bounds[i + 1]])
                                    for i in reversed(finished[:-1])]


def _refuse_past_the_cap(ctmc: CtmcExport, what: str):
    if ctmc.n_states - 1 > MAX_STATES:
        raise DomainError(f"{what} of {ctmc.n_states - 1} transient states is more than {MAX_STATES}")


def _edges(sources, targets, rates) -> np.ndarray:
    edges = np.empty(len(rates), EDGE)
    edges["source"], edges["target"], edges["rate"] = sources, targets, rates
    return edges


def _floats(values) -> np.ndarray:
    """values as floats; a list or tuple must hold ints and floats alone, not strings or bools."""
    if isinstance(values, (list, tuple)) and not set(map(type, values)) <= {int, float}:
        raise TypeError("rates and probabilities must be numbers")
    return np.asarray(values, dtype=float)


def _sparse(rows) -> tuple[np.ndarray, np.ndarray]:
    """The edges and exit rates of a square generator given row by row: each row keeps only its
    entries that are not +0.0, found by their bits, so -0.0 stays -0.0."""
    parts, exits, width = [], [], None
    for i, row in enumerate(rows):
        row = _floats(row)
        width = width or len(row)
        if row.shape != (width,) or i >= width:
            raise ValueError(f"generator row {i} does not hold one entry per row")
        exits.append(-row[i])
        cols = np.flatnonzero(row.view(np.int64))
        cols = cols[cols != i]
        parts.append((np.full(len(cols), i), cols, row[cols]))
    if len(exits) != width:
        raise ValueError("the generator must hold one row per entry of a row")
    return _edges(*map(np.concatenate, zip(*parts))), np.array(exits)


def _chain(model: GeneralizedCoxModel, big_lambda: float | None) -> CtmcExport:
    """The exact chain, or with big_lambda the routed one: I is state 0, every other state one down."""
    rep, lead = to_phase_type(model), int(big_lambda is not None)  # lead: the states before stage 1
    n = rep.n + lead  # the absorbing index
    sources, targets, rates = np.arange(lead, n), np.arange(lead + 1, n + 1), rep.rates
    targets[np.cumsum(rep.block_lengths, dtype=int) - 1] = n  # a branch's last stage: E
    exits, initial = np.append(rep.rates, -0.0), np.append(rep.alpha, rep.atom0)  # E's diagonal: +0.0
    labels = tuple([f"B{j}.S{k}" for j, b in enumerate(model.branches, start=1)
                    for k in range(1, b.length + 1)] + ["E"])
    if lead:
        route = big_lambda * initial
        cols = np.flatnonzero(route.view(np.int64))  # the entries that are not +0.0
        sources, targets, rates = (np.concatenate(p) for p in (
            (np.zeros(len(cols), int), sources), (cols + 1, targets), (route[cols], rates)))
        exits, initial, labels = np.append(big_lambda, exits), np.eye(1, n + 1)[0], ("I",) + labels
    return CtmcExport(labels, _edges(sources, targets, rates), exits, initial, n)


def exact_absorbing_ctmc(model: GeneralizedCoxModel) -> CtmcExport:
    """Exact chain: initial mass p_j on branch j's first stage, atom mass
    directly on E; last stage of each branch exits to E at its own rate."""
    return _chain(model, None)


def approx_ctmc(model: GeneralizedCoxModel, big_lambda: float | None = None) -> CtmcExport:
    """Huge-rate variant: explicit state I routes to branch heads at rates
    p_j * big_lambda (atom mass straight to E); all initial mass on I. big_lambda
    defaults to 1e4 times the largest stage rate; the exact mean bias is 1/big_lambda."""
    if big_lambda is None:
        big_lambda = DEFAULT_BIG_LAMBDA_FACTOR * max(model.max_rate, 1.0)
    if not (big_lambda > 0.0 and math.isfinite(big_lambda)):
        raise NonPositiveRate(f"big_lambda must be positive and finite, got {big_lambda!r}")
    return _chain(model, big_lambda)


def _back_substitute(plan, b: list[float]) -> list[float]:
    """(-T)^-1 b along the plan, each state from the states after it."""
    v = [0.0] * len(b)
    for i, exit_rate, succ in plan:
        s = b[i]
        for j, rate in succ:
            s += rate * v[j]
        v[i] = s / exit_rate
    return v


@_within_float_range
@np.errstate(over="ignore", invalid="ignore")
def absorption_time_moments(ctmc: CtmcExport, k: int) -> float:
    """k-th raw moment of the absorption time, k! a (-T)^{-k} 1 over the transient states (Neuts,
    Matrix-Geometric Solutions in Stochastic Models, 1981): one back-substitution per order, or
    for a chain with a cycle one dense solve, under the cap; the solves after the first take the
    time unit of analysis._unit_exponent."""
    if k < 1:
        raise NonPositiveInput("moment order must be >= 1")
    plan = ctmc._plan  # ReducibleChain first, on every call: a raise is not cached
    a = ctmc.initial.tolist()
    a[ctmc.absorbing_index] = 0.0
    if not any(a):  # no mass starts in a transient state
        return 0.0
    if plan is not None:
        solve = functools.partial(_back_substitute, plan)
    else:
        transient = np.delete(np.arange(ctmc.n_states), ctmc.absorbing_index)
        t_block = -ctmc.generator[np.ix_(transient, transient)]

        def solve(b):
            v = np.zeros(ctmc.n_states)
            v[transient] = np.linalg.solve(t_block, np.array(b)[transient])
            return v.tolist()
    v = solve([1.0] * len(a))  # the mean time from each state
    e = _unit_exponent(k, max(x for x, p in zip(v, a) if p > 0.0))
    v = [math.ldexp(x, -e) for x in v]  # in units of 2^e the rates are 2^e (-T): each solve takes 2^-e v
    for _ in range(k - 1):
        v = solve([math.ldexp(x, -e) for x in v])
    return _times_k_factorial(k, math.fsum(map(operator.mul, a, v)), e)


def export_json_pieces(ctmc: CtmcExport):
    """export_json's text a generator row at a time: a row of +0.0 with the repr of each entry that
    is not +0.0 spliced in, as json.dumps writes a float; -0.0 stays -0.0. Refused past the cap."""
    _refuse_past_the_cap(ctmc, "the ctmc-json text")
    n, diag = ctmc.n_states, -ctmc.exits
    rows = np.flatnonzero(diag.view(np.int64))
    entries = np.concatenate([ctmc.edges, _edges(rows, rows, diag[rows])])
    entries = entries[np.argsort(entries["source"] * n + entries["target"])]
    pairs = zip(entries["target"].tolist(), map(repr, entries["rate"].tolist()))
    zeros = f"[{', '.join(['0.0'] * n)}]"  # its entry j is zeros[5 j + 1:5 j + 4]
    yield f'{{"labels": {json.dumps(list(ctmc.labels))}, "generator": ['
    for i, count in enumerate(np.bincount(entries["source"], minlength=n).tolist()):
        pieces, end = [", "] if i else [], 0
        for j, x in itertools.islice(pairs, count):  # the row's entries, in column order
            pieces += (zeros[end:5 * j + 1], x)
            end = 5 * j + 4
        yield "".join(pieces + [zeros[end:]])
    yield (f'], "initial": {json.dumps(ctmc.initial.tolist())}, '
           f'"absorbing": {json.dumps(ctmc.absorbing_index)}}}')


def export_json(ctmc: CtmcExport) -> str:
    """json.dumps of labels, generator, initial and absorbing, making no Python float for a zero."""
    return "".join(export_json_pieces(ctmc))


def _punct(text: str, pos: int, expected: str) -> tuple[str, int]:
    """The next character, one of expected, and the position past it, with whitespace skipped."""
    m = _PUNCT.match(text, pos)
    if not (m and m[1] in expected):
        raise ValueError(f"expected one of {expected!r} at character {pos}")
    return m[1], m.end()


def parse_ctmc_json(text: str) -> CtmcExport:
    """Chain from export_json's format, its generator read a row at a time; other data raises
    MalformedModel."""
    decode, data, pos = json.JSONDecoder().raw_decode, {}, 0

    def items(opening, closing):  # yields at each item of the object or array at pos
        nonlocal pos
        c, pos = _punct(text, pos, opening)
        c, pos = _punct(text, pos, closing) if text.startswith(closing, pos) else (",", pos)
        while c == ",":
            yield
            c, pos = _punct(text, pos, "," + closing)

    def value():
        nonlocal pos
        obj, pos = decode(text, pos)
        return obj

    try:
        for _ in items("{", "}"):  # json.loads, but for the generator
            key, (_, pos) = value(), _punct(text, pos, ":")
            data[key] = _sparse(value() for _ in items("[", "]")) if key == "generator" else value()
        if pos != len(text):
            raise ValueError(f"extra data at character {pos}")
        fields = (data["labels"], *data["generator"], data["initial"], data["absorbing"])
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise MalformedModel(f"malformed CTMC data: {type(exc).__name__}: {exc}") from exc
    return CtmcExport(*fields)


def export_dot(ctmc: CtmcExport) -> str:
    """GraphViz digraph: edges labeled with rates, absorbing state
    double-circled, initial probabilities shown on the node labels."""
    lines = ["digraph ctmc {", "  rankdir=LR;", "  node [shape=circle];"]
    for i, (label, p) in enumerate(zip(ctmc.labels, ctmc.initial.tolist())):
        attrs = [f'label="{label}\\np0={p!r}"' if p > 0.0 else f'label="{label}"']
        if i == ctmc.absorbing_index:
            attrs.append("shape=doublecircle")
        lines.append(f'  s{i} [{", ".join(attrs)}];')
    lines += [f'  s{i} -> s{j} [label="{rate!r}"];'
              for i, j, rate in ctmc.edges[ctmc.edges["rate"] > 0.0].tolist()]
    lines.append("}")
    return "\n".join(lines)
