"""Output checks, computed apart from the program.

Nothing here calls phasefit: models are read as plain data, a list of
(probability, rates) branches, and every reference value is computed from
that data with numpy, scipy.special, scipy.linalg or closed forms. Each
check is a function of a job's output that returns True or False; the
tolerances, and why each has the size it has, are listed in README.md.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
from scipy.linalg import expm
from scipy.special import gammainc

from workloads import (CLI_CUSTOMERS, CLI_DRAWS, MOMENT_ORDERS, STIFF_GRID, Inputs,
                       Raised)

# i.i.d. sample means: a normal deviate beyond 5 SE has probability 5.7e-7.
N_SE = 5.0
# Batch-means waits: 20 batches give a t statistic with 19 degrees of
# freedom, whose two-sided tail beyond 6 is about 1e-5.
N_SE_BATCH = 6.0
# A valid se_wait stays far below this share of the P-K wait (measured
# at most 4 % on 2e5 customers); a larger one would make the wait check vacuous.
SE_WAIT_MAX_SHARE = 0.1
FIT_REL = 1e-9
DENSITY_ABS = 1e-8
MOMENT_REL = 1e-9
DRAW_REL = 1e-12
FIRST_DRAWS = 1_000
# cdf range and monotonicity slack: the uniformisation series is cut where
# its Poisson tail falls below 1e-12.
CDF_SLACK = 1e-12
EXPM_POINTS = 200


def branches_of(model) -> list[tuple[float, tuple[float, ...]]]:
    """Plain (probability, rates) branches of a phasefit model or of its
    JSON interchange dict."""
    if isinstance(model, dict):
        return [(float(b["prob"]), tuple(float(r) for r in b.get("rates", ())))
                for b in model["branches"]]
    return [(b.prob, tuple(b.rates)) for b in model.branches]


# --- reference computations ---------------------------------------------------

def mean_var(branches) -> tuple[float, float]:
    """Mean and variance by the law of total variance over branches."""
    means = [math.fsum(1.0 / r for r in rates) for _, rates in branches]
    vars_ = [math.fsum(1.0 / (r * r) for r in rates) for _, rates in branches]
    m = math.fsum(p * mj for (p, _), mj in zip(branches, means))
    within = math.fsum(p * vj for (p, _), vj in zip(branches, vars_))
    between = math.fsum(p * (mj - m) ** 2 for (p, _), mj in zip(branches, means))
    return m, within + between


def raw_moments(branches, kmax: int) -> list[float]:
    """E[T^k], k = 1..kmax: each branch is a sum of independent Gamma
    variables, one per distinct rate, whose moments are convolved with
    binomial weights."""
    total = [0.0] * (kmax + 1)
    for p, rates in branches:
        acc = [1.0] + [0.0] * kmax
        for rate, mult in Counter(rates).items():
            gamma = [math.prod(mult + i for i in range(j)) / rate**j for j in range(kmax + 1)]
            acc = [math.fsum(math.comb(k, j) * acc[j] * gamma[k - j] for j in range(k + 1))
                   for k in range(kmax + 1)]
        total = [t + p * a for t, a in zip(total, acc)]
    return total[1:]


def erlang_moment(n: int, rate: float, k: int) -> float:
    return math.prod(n + i for i in range(k)) / rate**k


def subgenerator(branches):
    """alpha, T and the exit vector t0 = -T 1, built here from the rates."""
    chains = [(p, rates) for p, rates in branches if rates]
    n = sum(len(r) for _, r in chains)
    alpha, t_mat = np.zeros(n), np.zeros((n, n))
    pos = 0
    for p, rates in chains:
        alpha[pos] = p
        for k, r in enumerate(rates):
            t_mat[pos + k, pos + k] = -r
            if k + 1 < len(rates):
                t_mat[pos + k, pos + k + 1] = r
        pos += len(rates)
    return alpha, t_mat, -t_mat.sum(axis=1)


def expm_cdf_pdf(branches, ts) -> tuple[np.ndarray, np.ndarray]:
    alpha, t_mat, exit_ = subgenerator(branches)
    rows = [alpha @ expm(t_mat * t) for t in ts]
    surv = np.array([r.sum() for r in rows])
    return 1.0 - surv, np.array([r @ exit_ for r in rows])


def hyper_cdf_pdf(branches, ts) -> tuple[np.ndarray, np.ndarray]:
    """Closed form for single-stage branches and atoms."""
    cdf, pdf = np.ones_like(ts), np.zeros_like(ts)
    for p, rates in branches:
        if rates:
            (r,) = rates
            cdf -= p * np.exp(-r * ts)
            pdf += p * r * np.exp(-r * ts)
    return cdf, pdf


def branch_index(branches, u: np.ndarray) -> np.ndarray:
    """First branch whose cumulative probability reaches u (the last one
    when rounding leaves u above every partial sum)."""
    cum, acc = [], 0.0
    for p, _ in branches:
        acc += p
        cum.append(acc)
    return np.minimum((u[:, None] > np.array(cum)[None, :]).sum(axis=1), len(cum) - 1)


def reference_draws(branches, seed: int, n: int, first: int) -> tuple[np.ndarray, int]:
    """The first draws of a sample_n batch, and the uniforms it consumes,
    read straight from numpy's PCG64 in the documented layout: n branch
    uniforms, then each draw's stage uniforms in draw order, U = 1 - random()."""
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = branch_index(branches, 1.0 - rng.random(n))
    lengths = np.array([len(rates) for _, rates in branches])
    stage_u = 1.0 - rng.random(int(lengths[idx[:first]].sum()))
    draws, pos = [], 0
    for j in idx[:first]:
        t = 0.0
        for rate in branches[j][1]:
            t += -math.log(stage_u[pos]) / rate
            pos += 1
        draws.append(t)
    return np.array(draws), n + int(lengths[idx].sum())


def pk_wait(arrival_rate: float, mu: float, var: float) -> float:
    rho = arrival_rate * mu
    return arrival_rate * (var + mu * mu) / (2.0 * (1.0 - rho))


# --- elementary checks ---------------------------------------------------------

def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def mean_ok(xs: np.ndarray, mu: float) -> bool:
    return abs(xs.mean() - mu) <= N_SE * math.sqrt(xs.var(ddof=1) / len(xs))


def var_ok(xs: np.ndarray, var: float) -> bool:
    s2 = xs.var(ddof=1)
    m4 = np.mean((xs - xs.mean()) ** 4)
    return abs(s2 - var) <= N_SE * math.sqrt(max(m4 - s2 * s2, 0.0) / len(xs))


def zero_fraction_ok(xs: np.ndarray, p0: float) -> bool:
    return abs(np.mean(xs == 0.0) - p0) <= N_SE * math.sqrt(p0 * (1.0 - p0) / len(xs))


def draws_ok(xs: np.ndarray, branches, seed: int, n: int) -> bool:
    ref, _ = reference_draws(branches, seed, n, FIRST_DRAWS)
    return len(xs) == n and np.allclose(xs[:FIRST_DRAWS], ref, rtol=DRAW_REL, atol=0.0)


def cdf_shape_ok(values: np.ndarray, atom: float) -> bool:
    """In [0, 1], nondecreasing along the sorted grid, cdf(0) = atom weight."""
    return bool(np.all(np.isfinite(values))
                and values.min() >= -CDF_SLACK and values.max() <= 1.0 + CDF_SLACK
                and np.all(np.diff(values) >= -CDF_SLACK)
                and abs(values[0] - atom) <= CDF_SLACK)


def close_abs(values: np.ndarray, ref: np.ndarray) -> bool:
    return values.shape == ref.shape and bool(np.all(np.abs(values - ref) <= DENSITY_ABS))


def fit_ok(branches, mu: float, var: float) -> bool:
    m, v = mean_var(branches)
    return rel_close(m, mu, FIT_REL) and rel_close(v, var, FIT_REL)


def minimal_ok(branches, cv2: float) -> bool:
    n = sum(len(rates) for _, rates in branches)
    return n == (math.ceil(1.0 / cv2) if cv2 < 1.0 else 1)


def queue_checks(stats, mu: float, var: float, rho: float, customers: int) -> dict:
    """Mean wait against P-K, a plausible se_wait, utilisation and count."""
    cv2 = var / (mu * mu)
    pk = pk_wait(rho / mu, mu, var)
    util_tol = N_SE * rho * math.sqrt((1.0 + cv2) / customers)
    return {
        "wait_vs_pk": abs(stats.mean_wait - pk) <= N_SE_BATCH * stats.se_wait,
        "se_wait_plausible": 0.0 < stats.se_wait <= SE_WAIT_MAX_SHARE * pk,
        "utilization": abs(stats.utilization - rho) <= util_tol,
        "n_served": stats.n_served == customers,
    }


# --- per-workload check plans ---------------------------------------------------
# A plan maps each job name to its named checks; a check gets the job's
# output and the outputs of the whole pass. A job that raised fails all
# its checks.

def _stream_plan(d: dict) -> dict:
    plan = {}
    for t, seed in zip(d["targets"], d["seeds"]):
        br = branches_of(t.model)
        p0 = math.fsum(p for p, rates in br if not rates)
        checks = {
            "mean": lambda o, _, mu=t.mu: mean_ok(o.values, mu),
            "variance": lambda o, _, v=t.var: var_ok(o.values, v),
            "first_draws": lambda o, _, br=br, s=seed: draws_ok(o.values, br, s, d["n"]),
            "uniforms_used": lambda o, _, br=br, s=seed:
                o.uniforms_used == reference_draws(br, s, d["n"], 0)[1],
        }
        if p0 > 0.0:
            cv2 = t.var / t.mu**2
            checks["zero_fraction"] = lambda o, _, c=cv2: zero_fraction_ok(
                o.values, 1.0 - 2.0 / (1.0 + c))
        plan[f"sample_n.{t.name}"] = checks
    return plan


def _analytic_plan(d: dict) -> dict:
    mu = d["mu"]
    sweep = d["sweep_cv2"]

    plan = {"fit_sweep": {}}
    for i, c in enumerate(sweep):
        plan["fit_sweep"][f"targets[{i}]"] = (
            lambda o, _, i=i, c=c: fit_ok(branches_of(o[i].model), mu, c * mu * mu))
        plan["fit_sweep"][f"minimal[{i}]"] = (
            lambda o, _, i=i, c=c: minimal_ok(branches_of(o[i].model), c))
    rng = np.random.Generator(np.random.PCG64(d["expm_seed"]))
    for t in d["small"]:
        br = branches_of(t.model)
        grid = d["grids"][t.name]
        atom = math.fsum(p for p, rates in br if not rates)
        if all(len(rates) <= 1 for _, rates in br):
            pick = np.arange(len(grid))
            ref_cdf, ref_pdf = hyper_cdf_pdf(br, grid)
        else:
            pick = np.concatenate(([0], np.sort(rng.choice(len(grid), EXPM_POINTS - 1,
                                                            replace=False))))
            ref_cdf, ref_pdf = expm_cdf_pdf(br, grid[pick])
        plan[f"cdf.{t.name}"] = {
            "reference": lambda o, _, p=pick, r=ref_cdf: close_abs(o[p], r),
            "shape": lambda o, _, a=atom: cdf_shape_ok(o, a),
        }
        plan[f"pdf.{t.name}"] = {
            "reference": lambda o, _, p=pick, r=ref_pdf: close_abs(o[p], r),
        }
    big = d["erlang_large"]
    n_big, rate_big = len(big.model.branches[0].rates), big.model.branches[0].rates[0]
    ts = d["erlang_large_t"]
    plan["cdf.erlang_large"] = {
        "gammainc": lambda o, _: close_abs(o, gammainc(n_big, rate_big * ts)),
        "range": lambda o, _: bool(np.all((o >= -CDF_SLACK) & (o <= 1.0 + CDF_SLACK))),
    }
    large = d["moment_large"].model.branches[0].rates
    plan["moment_k.large"] = {
        f"k={k}": lambda o, _, i=i, k=k: rel_close(
            o[i], erlang_moment(len(large), large[0], k), MOMENT_REL)
        for i, k in enumerate(MOMENT_ORDERS)
    }
    chain = d["ctmc_model"].model.branches[0].rates
    n = len(chain)

    def generator_ok(ctmc, _):
        gen = np.zeros((n + 1, n + 1))
        for i, r in enumerate(chain):
            gen[i, i], gen[i, i + 1] = -r, r
        initial = np.zeros(n + 1)
        initial[0] = 1.0
        return (ctmc.n_states == n + 1 and ctmc.absorbing_index == n
                and np.array_equal(ctmc.generator, gen) and np.array_equal(ctmc.initial, initial))

    plan["exact_absorbing_ctmc"] = {"generator": generator_ok}
    plan["absorption_time_moments"] = {
        f"k={k}": lambda o, _, i=i, k=k: rel_close(o[i], erlang_moment(n, chain[0], k), MOMENT_REL)
        for i, k in enumerate(MOMENT_ORDERS)
    }

    def json_ok(o, outputs):
        data = json.loads(o[0])
        ctmc = outputs["exact_absorbing_ctmc"]
        return (data["absorbing"] == n and len(data["labels"]) == n + 1
                and np.array_equal(np.array(data["generator"]), ctmc.generator))

    def dot_ok(o, _):
        lines = o[1].splitlines()
        return (lines[0].startswith("digraph") and lines[-1] == "}"
                and sum("->" in line for line in lines) == n
                and sum("doublecircle" in line for line in lines) == 1)

    plan["export"] = {"json_round_trip": json_ok, "dot_edges": dot_ok}
    plan["cdf.stiff"] = {
        "finite_in_unit_interval": lambda o, _: o.shape == STIFF_GRID.shape and bool(
            np.all(np.isfinite(o) & (o >= -CDF_SLACK) & (o <= 1.0 + CDF_SLACK))),
    }
    return plan


def _queue_plan(d: dict) -> dict:
    plan = {}
    for name, t, rho in d["configs"]:
        plan[f"run_mph1.{name}"] = {
            key: lambda o, _, key=key, t=t, rho=rho: queue_checks(
                o, t.mu, t.var, rho, d["customers"])[key]
            for key in ("wait_vs_pk", "se_wait_plausible", "utilization", "n_served")
        }
    return plan


def parse_fields(text: str) -> dict:
    """key=value lines of `phasefit simulate` stdout."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def sample_values(stdout: bytes, n: int) -> np.ndarray | None:
    """The n values after the three '# ' header lines, or None if the file
    has another layout."""
    lines = stdout.decode().splitlines()
    if len(lines) != n + 3 or not all(line.startswith("# ") for line in lines[:3]):
        return None
    return np.array(lines[3:], dtype=float)


def _cli_plan(d: dict) -> dict:
    mu, var = d["mu"], d["var"]
    seed_sample, _, _ = d["seeds"]
    exit0 = {"exit_code": lambda o, _: o.returncode == 0}

    def fitted(outputs):
        return branches_of(json.loads(outputs["fit"].stdout))

    def sample_layout(o, _):
        return sample_values(o.stdout, CLI_DRAWS) is not None

    def sample_mean(o, _):
        xs = sample_values(o.stdout, CLI_DRAWS)
        return xs is not None and mean_ok(xs, mu)

    def sample_draws(o, outputs):
        xs = sample_values(o.stdout, CLI_DRAWS)
        return xs is not None and draws_ok(xs, fitted(outputs), seed_sample, CLI_DRAWS)

    def moments_ok(o, outputs):
        rows = [line.split("\t") for line in o.stdout.decode().splitlines()]
        ref = raw_moments(fitted(outputs), 4)
        return ([int(k) for k, _ in rows] == [1, 2, 3, 4]
                and all(rel_close(float(v), r, MOMENT_REL) for (_, v), r in zip(rows, ref)))

    def dot_ok(o, outputs):
        n = sum(len(rates) for _, rates in fitted(outputs))
        return o.stdout.decode().count("->") == n

    pk = pk_wait(d["arrival_rate"], mu, var)

    def sim(o):
        return parse_fields(o.stdout.decode())

    return {
        "fit": {**exit0,
                "stages": lambda o, _: minimal_ok(branches_of(json.loads(o.stdout)), var / mu**2),
                "targets": lambda o, _: fit_ok(branches_of(json.loads(o.stdout)), mu, var)},
        "sample": {**exit0, "layout": sample_layout, "mean": sample_mean,
                   "first_draws": sample_draws},
        "moments": {**exit0, "closed_form": moments_ok},
        "export": {**exit0, "dot_edges": dot_ok},
        "verify": {**exit0, "pass": lambda o, _: o.stdout.decode().strip() == "PASS"},
        "simulate": {
            **exit0,
            "pk_mean_wait": lambda o, _: rel_close(float(sim(o)["pk_mean_wait"]), pk, FIT_REL),
            "wait_vs_pk": lambda o, _: abs(float(sim(o)["mean_wait"]) - pk)
                <= N_SE_BATCH * float(sim(o)["se_wait"]),
            "n_served": lambda o, _: int(sim(o)["n_served"]) == CLI_CUSTOMERS,
        },
    }


def plan_for(inputs: Inputs) -> dict:
    return {"stream": _stream_plan, "analytic": _analytic_plan,
            "queue": _queue_plan, "cli": _cli_plan}[inputs.workload](inputs.data)


def evaluate(check, output, outputs) -> bool:
    """A check's verdict; a job that raised, or an output a check cannot
    read, fails it."""
    if isinstance(output, Raised):
        return False
    try:
        return bool(check(output, outputs))
    except (ValueError, TypeError, KeyError, IndexError, AttributeError, ArithmeticError):
        return False
