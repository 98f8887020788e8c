"""Discrete-event timing with Generalized Cox delays: a generic event
calendar (time-ordered, FIFO on ties) and an M/PH/1 queue simulated by
Lindley's recursion, checked against the Pollaczek-Khinchine mean wait."""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import analysis, sampling
from .errors import (DomainError, MomentOverflow, NegativeCount, NonPositiveInput, UnstableSystem,
                     UnstableSystemWarning)
from .model import GeneralizedCoxModel, exponential_model

WARMUP_FRACTION = 0.1
N_BATCHES = 20


class EventCalendar:
    """Pending events ordered by time, FIFO on equal times."""

    def __init__(self, rng: sampling.SamplerState):
        self.clock = 0.0
        self.rng = rng
        self._heap: list[tuple[float, int, object]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, model: GeneralizedCoxModel, event_id) -> float:
        """Draw a delay from the model and insert the event; returns the
        absolute firing time."""
        t = self.clock + float(sampling.sample_n(model, self.rng, 1)[0])
        self.schedule_at(t, event_id)
        return t

    def schedule_at(self, time: float, event_id) -> None:
        """Insert an event at an absolute (pre-drawn) time."""
        if not time >= self.clock:  # also refuses NaN
            raise NonPositiveInput("cannot schedule before the current clock")
        heapq.heappush(self._heap, (time, self._seq, event_id))
        self._seq += 1

    def pop(self) -> tuple[float, object]:
        """Advance the clock to the earliest event and return (time, id)."""
        time, _, event_id = heapq.heappop(self._heap)
        self.clock = time
        return time, event_id


@dataclass(frozen=True)
class QueueStats:
    n_served: int
    mean_wait: float
    mean_system_time: float
    utilization: float
    se_wait: float
    stable: bool


def pk_mean_wait(arrival_rate: float, service_summary: analysis.MomentSummary) -> float:
    """Pollaczek-Khinchine mean wait lambda E[S^2] / (2 (1 - rho))."""
    if not (arrival_rate >= 0.0 and math.isfinite(arrival_rate)):
        raise NonPositiveInput(f"arrival rate must be finite and nonnegative, got {arrival_rate!r}")
    rho = arrival_rate * service_summary.mean
    if rho >= 1.0:
        raise UnstableSystem(f"rho = {rho} >= 1")
    return arrival_rate * service_summary.second_moment / (2.0 * (1.0 - rho))


# Draws per sample_n call. The seeded layout of a run's arrival and service
# streams is this sequence of equal blocks, so the value fixes every result.
DRAW_BLOCK = 1 << 15


def _draws(model: GeneralizedCoxModel, state: sampling.SamplerState, n: int) -> np.ndarray:
    """The first n of consecutive sample_n blocks of DRAW_BLOCK draws."""
    out = np.empty(n)
    for lo in range(0, n, DRAW_BLOCK):
        out[lo:lo + DRAW_BLOCK] = sampling.sample_n(model, state, DRAW_BLOCK)[:n - lo]
    return out


def _fifo_waits(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Waits of FIFO customers at one server, written over `arrivals`: by
    Lindley's recursion in closed form (Lindley 1952, Proc. Camb. Phil. Soc.
    48), with V_k = A_k - (S_0 + ... + S_{k-1}), W_k = max_{j<=k} V_j - V_k."""
    work = np.cumsum(services)
    arrivals[1:] -= work[:-1]
    np.maximum.accumulate(arrivals, out=work)
    return np.subtract(work, arrivals, out=arrivals)


def run_mph1(arrival_rate: float, service: GeneralizedCoxModel,
             n_customers: int = 500_000, seed: int = 0) -> QueueStats:
    """Single-server FIFO queue with Poisson arrivals and phase-type service,
    n_customers served in one vectorised pass; the first WARMUP_FRACTION of
    them is discarded and se_wait comes from N_BATCHES batch means."""
    if not (arrival_rate >= 0.0 and math.isfinite(arrival_rate)):
        raise NonPositiveInput(f"arrival rate must be finite and nonnegative, got {arrival_rate!r}")
    if n_customers < 0:
        raise NegativeCount(f"customer count must be nonnegative, got {n_customers}")
    if arrival_rate == 0.0 or n_customers == 0:
        return QueueStats(0, 0.0, 0.0, 0.0, 0.0, True)

    rho = arrival_rate * analysis.mean(service)
    stable = rho < 1.0
    if not stable:
        warnings.warn(f"rho = {rho} >= 1; statistics are transient",
                      UnstableSystemWarning)

    arr_state, svc_state = sampling.split_seeds(seed, 2)
    try:  # the per-customer arrays
        arrivals = _draws(exponential_model(arrival_rate), arr_state, n_customers)
        services = _draws(service, svc_state, n_customers)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: MomentOverflow
            last_arrival = np.cumsum(arrivals, out=arrivals)[-1]  # _fifo_waits writes over arrivals
            waits = _fifo_waits(arrivals, services)
            last_departure = last_arrival + waits[-1] + services[-1]
    except MemoryError:
        raise DomainError(f"{n_customers} customers do not fit in memory") from None
    if not math.isfinite(last_departure):
        raise MomentOverflow("the last departure time exceeds the float range")

    cut = int(WARMUP_FRACTION * n_customers)
    mean_wait = float(waits[cut:].mean())
    return QueueStats(
        n_served=n_customers,
        mean_wait=mean_wait,
        mean_system_time=mean_wait + float(services[cut:].mean()),
        utilization=float(min(services.sum() / last_departure, 1.0)) if last_departure > 0 else 0.0,
        se_wait=_batch_means_se(waits[cut:]),
        stable=stable,
    )


def _batch_means_se(xs: np.ndarray) -> float:
    if len(xs) < N_BATCHES * 2:
        return float(xs.std(ddof=1) / math.sqrt(len(xs))) if len(xs) > 1 else 0.0
    usable = len(xs) - len(xs) % N_BATCHES
    means = xs[:usable].reshape(N_BATCHES, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(N_BATCHES))
