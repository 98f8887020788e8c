"""Seeded inputs and fixed job lists of the four benchmark workloads.

Every input is derived from the workload seed; the program only ever sees
the generated values. Each job is one call into the program (or, on `cli`,
one fresh `phasefit` process), and a pass runs every job of the workload's
list once, in order. This module imports only the standard library, numpy
and phasefit, so that a fresh interpreter importing it and building the
inputs measures the set-up a user pays.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from phasefit import analysis, des, fitting, markov, model, sampling

WORKLOADS = ("stream", "analytic", "queue", "cli")

STREAM_DRAWS = 1_000_000
GRID_POINTS = 100_000
SWEEP_FITS = 2_000
ERLANG_LARGE_STAGES = 500
ERLANG_LARGE_POINTS = 5
MOMENT_LARGE_STAGES = 4_000
MOMENT_ORDERS = (1, 2, 3, 4)
CTMC_STAGES = 199  # plus the absorbing state: 200 CTMC states
QUEUE_CUSTOMERS = 200_000
CLI_DRAWS = 1_000_000
CLI_CUSTOMERS = 200_000
CLI_RHO = 0.7

# The stiff-model fault: fixed, never seeded, so it fails on every run.
STIFF_P = 0.4 - 1e-13
STIFF_GRID = np.linspace(0.0, 10.0, 1_000)


@dataclass(frozen=True)
class Job:
    """One operation of a pass: `fn(outputs)` gets the outputs of the jobs
    before it in the same pass and returns this job's output."""

    name: str
    fn: Callable[[dict], Any]


@dataclass(frozen=True)
class Raised:
    """Output of a job that raised instead of returning."""

    error: str
    message: str


@dataclass(frozen=True)
class Sampled:
    values: np.ndarray
    uniforms_used: int


@dataclass(frozen=True)
class CliRun:
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kib: int  # of this child alone, from wait4; not part of the output


@dataclass(frozen=True)
class Target:
    """A fitted (or constructed) model with the moments it was built for."""

    name: str
    model: model.GeneralizedCoxModel
    mu: float
    var: float


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, WORKLOADS.index(workload)]))


def _cv2_for_stages(rng: np.random.Generator, n: int) -> float:
    """A Cv^2 whose minimal almost-Erlang fit has exactly n stages, from a
    narrow band in the middle of the interval: ceil(1/Cv^2) is never
    ambiguous, and the cost of cdf/pdf, which grows with Cv^2 (by half
    across the whole interval for 3 stages), is nearly the same on every
    seed."""
    return 1.0 / rng.uniform(n - 0.55, n - 0.45)


def _scale(rng: np.random.Generator) -> float:
    return float(10.0 ** rng.uniform(-0.3, 0.3))


def _fit(name: str, mu: float, cv2: float) -> Target:
    var = cv2 * mu * mu
    return Target(name, fitting.fit_two_moments(mu, var).model, mu, var)


def stream_models(rng: np.random.Generator) -> list[Target]:
    mu = _scale(rng)
    return [
        _fit("exponential", mu, 1.0),
        _fit("almost_erlang3", mu, _cv2_for_stages(rng, 3)),
        _fit("almost_erlang20", mu, _cv2_for_stages(rng, 20)),
        _fit("hyper_atom", mu, 16.0),
        Target("sauer_chandy", fitting.sauer_chandy(mu, 4.0 * mu * mu).model,
               mu, 4.0 * mu * mu),
    ]


def sweep_cv2(rng: np.random.Generator) -> np.ndarray:
    """Log-spaced Cv^2 over [1e-2, 1e2] with a seeded offset; a point whose
    1/Cv^2 lies within 1e-6 of an integer is nudged off it."""
    u = -2.0 + 4.0 * (np.arange(SWEEP_FITS) + rng.uniform(0.05, 0.95)) / SWEEP_FITS
    cv2 = 10.0 ** u
    inv = 1.0 / cv2
    near = np.abs(inv - np.round(inv)) < 1e-6 * inv
    cv2[near] *= 1.0 + 1e-5
    return cv2


@dataclass(frozen=True)
class Inputs:
    workload: str
    data: dict


def build_inputs(workload: str, seed: int) -> Inputs:
    rng = _rng(workload, seed)
    if workload == "stream":
        targets = stream_models(rng)
        seeds = [int(s) for s in rng.integers(0, 2**63, size=len(targets))]
        data = {"targets": targets, "seeds": seeds, "n": STREAM_DRAWS}
    elif workload == "analytic":
        mu = _scale(rng)
        small = [
            _fit("almost_erlang3", mu, _cv2_for_stages(rng, 3)),
            _fit("almost_erlang20", mu, _cv2_for_stages(rng, 20)),
            _fit("hyper_atom", mu, 16.0),
        ]
        # Each grid runs from 0 to mean + 8 standard deviations, so the
        # number of uniformisation terms, hence the cost, does not
        # depend on the seed's scale.
        grids = {t.name: np.linspace(0.0, t.mu + 8.0 * math.sqrt(t.var), GRID_POINTS)
                 for t in small}
        big = ERLANG_LARGE_STAGES
        data = {
            "mu": mu,
            "sweep_cv2": sweep_cv2(rng),
            "small": small,
            "grids": grids,
            "erlang_large": Target("erlang_large",
                                   fitting.erlang_approximation(mu, big).model,
                                   mu, mu * mu / big),
            "erlang_large_t": mu * np.sort(rng.uniform(0.8, 1.2, ERLANG_LARGE_POINTS)),
            "moment_large": Target("moment_large",
                                   fitting.erlang_approximation(mu, MOMENT_LARGE_STAGES).model,
                                   mu, mu * mu / MOMENT_LARGE_STAGES),
            "ctmc_model": Target("ctmc", fitting.erlang_approximation(mu, CTMC_STAGES).model,
                                 mu, mu * mu / CTMC_STAGES),
            "stiff": fitting.hyper_family(1.0, 4.0, STIFF_P).model,
            "expm_seed": int(rng.integers(0, 2**63)),
        }
    elif workload == "queue":
        mu = _scale(rng)
        ae3 = _fit("almost_erlang3", mu, _cv2_for_stages(rng, 3))
        configs = [
            ("exp_rho07", _fit("exponential", mu, 1.0), 0.7),
            ("almost_erlang3_rho05", ae3, 0.5),
            ("almost_erlang3_rho09", ae3, 0.9),
            ("hyper_atom_rho08", _fit("hyper_atom", mu, 4.0), 0.8),
        ]
        seeds = [int(s) for s in rng.integers(0, 2**63, size=len(configs))]
        data = {"configs": configs, "seeds": seeds, "customers": QUEUE_CUSTOMERS}
    elif workload == "cli":
        mu = _scale(rng)
        cv2 = _cv2_for_stages(rng, 20)
        seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
        data = {"mu": mu, "var": cv2 * mu * mu, "seeds": seeds,
                "arrival_rate": CLI_RHO / mu}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(workload, data)


# --- job lists ---------------------------------------------------------------

def _sample_job(target: Target, seed: int, n: int) -> Job:
    def run(_):
        state = sampling.SamplerState(seed)
        values = sampling.sample_n(target.model, state, n)
        return Sampled(values, state.counter)
    return Job(f"sample_n.{target.name}", run)


def _stream_jobs(d: dict) -> list[Job]:
    return [_sample_job(t, s, d["n"]) for t, s in zip(d["targets"], d["seeds"])]


def _analytic_jobs(d: dict) -> list[Job]:
    mu = d["mu"]
    jobs = [Job("fit_sweep",
                lambda _: [fitting.fit_two_moments(mu, float(c) * mu * mu)
                           for c in d["sweep_cv2"]])]
    for t in d["small"]:
        grid = d["grids"][t.name]
        jobs.append(Job(f"cdf.{t.name}", lambda _, m=t.model, g=grid: analysis.cdf(m, g)))
        jobs.append(Job(f"pdf.{t.name}", lambda _, m=t.model, g=grid: analysis.pdf(m, g)))
    big, points = d["erlang_large"].model, d["erlang_large_t"]
    jobs.append(Job("cdf.erlang_large", lambda _: analysis.cdf(big, points)))
    large = d["moment_large"].model
    jobs.append(Job("moment_k.large",
                    lambda _: [analysis.moment_k(large, k) for k in MOMENT_ORDERS]))
    ctmc_model = d["ctmc_model"].model
    jobs.append(Job("exact_absorbing_ctmc", lambda _: markov.exact_absorbing_ctmc(ctmc_model)))
    jobs.append(Job("absorption_time_moments",
                    lambda out: [markov.absorption_time_moments(out["exact_absorbing_ctmc"], k)
                                 for k in MOMENT_ORDERS]))
    jobs.append(Job("export",
                    lambda out: (markov.export_json(out["exact_absorbing_ctmc"]),
                                 markov.export_dot(out["exact_absorbing_ctmc"]))))
    stiff = d["stiff"]
    jobs.append(Job("cdf.stiff", lambda _: analysis.cdf(stiff, STIFF_GRID)))
    return jobs


def _queue_jobs(d: dict) -> list[Job]:
    return [Job(f"run_mph1.{name}",
                lambda _, t=t, rho=rho, s=s: des.run_mph1(rho / t.mu, t.model,
                                                          n_customers=d["customers"], seed=s))
            for (name, t, rho), s in zip(d["configs"], d["seeds"])]


def run_child(argv: list[str], root: Path, cwd: Path) -> CliRun:
    """Run one child process, importing phasefit from root/src, to its end;
    its rusage comes from wait4, so the peak RSS is that of this child alone."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with open(cwd / "stdout", "w+b") as out, open(cwd / "stderr", "w+b") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliRun(proc.returncode, out.read(), err.read(), usage.ru_maxrss)


def _cli_jobs(d: dict, root: Path, work: Path) -> list[Job]:
    model_file = work / "model.json"
    seed_sample, seed_verify, seed_sim = d["seeds"]
    cli = [sys.executable, "-m", "phasefit.cli"]

    def call(args, save_model=False):
        def run(_):
            res = run_child(cli + args, root, work)
            if save_model:
                model_file.write_bytes(res.stdout)
            return res
        return run

    m = str(model_file)
    return [
        Job("fit", call(["fit", "--mean", repr(d["mu"]), "--var", repr(d["var"])],
                        save_model=True)),
        Job("sample", call(["sample", "--model", m, "-n", str(CLI_DRAWS),
                            "--seed", str(seed_sample)])),
        Job("moments", call(["moments", "--model", m, "-k", "4"])),
        Job("export", call(["export", "--model", m, "--format", "dot"])),
        Job("verify", call(["verify", "--model", m, "-n", str(CLI_DRAWS),
                            "--seed", str(seed_verify)])),
        Job("simulate", call(["simulate", "--service", m,
                              "--arrival-rate", repr(d["arrival_rate"]),
                              "--customers", str(CLI_CUSTOMERS), "--seed", str(seed_sim)])),
    ]


def jobs_for(inputs: Inputs, root: Path, work: Path) -> list[Job]:
    d = inputs.data
    if inputs.workload == "stream":
        return _stream_jobs(d)
    if inputs.workload == "analytic":
        return _analytic_jobs(d)
    if inputs.workload == "queue":
        return _queue_jobs(d)
    return _cli_jobs(d, root, work)


def run_job(job: Job, outputs: dict) -> Any:
    """The job's output, or a Raised record if the program raised."""
    try:
        return job.fn(outputs)
    except Exception as exc:  # a failing operation is counted, not fatal
        return Raised(type(exc).__name__, str(exc))
