"""Self-test of the output checks: each check must reject a wrong output.

    python3 perfbench/selftest.py [--seed N]

Runs one pass of each workload, confirms that the real outputs pass their
checks (the stiff-model cdf excepted, which raises), then feeds every
check a deliberately wrong output and reports whether it failed. Checks
of the fit sweep share two check functions across 2000 fits; they are
exercised at two indices. Exits 1 if a wrong output goes undetected where
it must be detected, or if a check is never exercised.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

from checks import N_SE_BATCH, evaluate, pk_wait, plan_for  # noqa: E402
from phasefit import fitting  # noqa: E402
from workloads import WORKLOADS, Sampled, build_inputs, jobs_for, run_job  # noqa: E402


def _replace_text(o, fn):
    return dataclasses.replace(o, stdout=fn(o.stdout.decode()).encode())


def _sample_lines(text, fn):
    lines = text.splitlines()
    return "\n".join(lines[:3] + fn(lines[3:])) + "\n"


def _scaled_moment(text, k, factor):
    rows = [line.split("\t") for line in text.splitlines()]
    rows[k - 1][1] = repr(float(rows[k - 1][1]) * factor)
    return "\n".join("\t".join(r) for r in rows) + "\n"


def _field(text, key, fn):
    return "\n".join(f"{key}={fn(line.split('=', 1)[1])}" if line.startswith(key + "=")
                     else line for line in text.splitlines()) + "\n"


def _drop_edge(text):
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if "->" in line)
    return "\n".join(lines[:i] + lines[i + 1:])


def mutations(workload: str, inputs, outputs) -> list[tuple]:
    """(job, what is wrong, wrong output, check that must fail, required)."""
    d = inputs.data
    rng = np.random.default_rng(0)
    out = []
    if workload == "stream":
        for job, o in outputs.items():
            m = o.values.mean()
            out += [
                (job, "every draw 5 % too large", Sampled(o.values * 1.05, o.uniforms_used), "mean"),
                (job, "spread 5 % too wide", Sampled(m + (o.values - m) * 1.05, o.uniforms_used),
                 "variance"),
                (job, "variate stream permuted", Sampled(rng.permutation(o.values),
                                                         o.uniforms_used), "first_draws"),
                (job, "uniform count off by one", Sampled(o.values, o.uniforms_used + 1),
                 "uniforms_used"),
            ]
            if np.any(o.values == 0.0):
                v = o.values.copy()
                v[:20_000][v[:20_000] == 0.0] = 1e-3
                out.append((job, "1 % of the atom moved off zero", Sampled(v, o.uniforms_used),
                            "zero_fraction"))
    elif workload == "analytic":
        mu = d["mu"]
        fits = outputs["fit_sweep"]
        for i in (3, len(fits) - 5):
            c = float(d["sweep_cv2"][i])
            n = sum(b.length for b in fits[i].model.branches)
            wrong = list(fits)
            wrong[i] = fitting.erlang_approximation(mu, n + 1)
            out.append(("fit_sweep", f"fit {i}: one stage too many", wrong, f"minimal[{i}]"))
            wrong = list(fits)
            wrong[i] = fitting.fit_two_moments(mu * (1 + 1e-8), c * mu * mu)
            out.append(("fit_sweep", f"fit {i}: mean off by 1e-8", wrong, f"targets[{i}]"))
        for t in d["small"]:
            cdf, pdf = outputs[f"cdf.{t.name}"], outputs[f"pdf.{t.name}"]
            dip = cdf.copy()
            dip[len(dip) // 2] = dip[len(dip) // 2 - 1] - 1e-9
            out += [
                (f"cdf.{t.name}", "cdf shifted by one grid step",
                 np.concatenate([cdf[1:], cdf[-1:]]), "reference"),
                (f"cdf.{t.name}", "cdf decreases by 1e-9 at one point", dip, "shape"),
                (f"cdf.{t.name}", "cdf(0) 1e-6 above the atom weight",
                 np.concatenate([[cdf[0] + 1e-6], cdf[1:]]), "shape"),
                (f"pdf.{t.name}", "pdf 1e-6 too large", pdf * (1 + 1e-6) + 1e-8, "reference"),
            ]
        big = outputs["cdf.erlang_large"]
        above = big.copy()
        above[-1] = 1.0 + 1e-9
        out += [
            ("cdf.erlang_large", "cdf 1e-7 too large", big + 1e-7, "gammainc"),
            ("cdf.erlang_large", "one value above 1", above, "range"),
        ]
        for i, k in enumerate((1, 2, 3, 4)):
            mk = list(outputs["moment_k.large"])
            mk[i] *= 1 + 1e-8
            out.append(("moment_k.large", f"moment {k} off by 1e-8", mk, f"k={k}"))
            am = list(outputs["absorption_time_moments"])
            am[i] *= 1 + 1e-8
            out.append(("absorption_time_moments", f"moment {k} off by 1e-8", am, f"k={k}"))
        ctmc = outputs["exact_absorbing_ctmc"]
        gen = ctmc.generator.copy()
        gen[0, 0] *= 1.001
        gen[0, 1] *= 1.001
        out.append(("exact_absorbing_ctmc", "one rate 0.1 % off",
                    dataclasses.replace(ctmc, generator=gen), "generator"))
        js, dot = outputs["export"]
        out += [
            ("export", "a JSON rate changed", (js.replace("[-", "[-1", 1), dot),
             "json_round_trip"),
            ("export", "a DOT edge dropped", (js, _drop_edge(dot)), "dot_edges"),
            ("cdf.stiff", "NaN values", np.full(1000, np.nan), "finite_in_unit_interval"),
        ]
    elif workload == "queue":
        for name, t, rho in d["configs"]:
            job = f"run_mph1.{name}"
            o = outputs[job]
            pk = pk_wait(rho / t.mu, t.mu, t.var)
            # The wait check resolves an offset above N_SE_BATCH standard
            # errors only: 10 % is required where it exceeds that, 30 % always.
            out += [
                (job, "mean wait 10 % above P-K", dataclasses.replace(o, mean_wait=1.1 * pk),
                 "wait_vs_pk", 0.1 * pk > N_SE_BATCH * o.se_wait),
                (job, "mean wait 30 % above P-K", dataclasses.replace(o, mean_wait=1.3 * pk),
                 "wait_vs_pk"),
                (job, "se_wait inflated 30x", dataclasses.replace(o, se_wait=30 * o.se_wait),
                 "se_wait_plausible"),
                (job, "utilisation 0.05 off",
                 dataclasses.replace(o, utilization=o.utilization - 0.05), "utilization"),
                (job, "one customer short", dataclasses.replace(o, n_served=o.n_served - 1),
                 "n_served"),
            ]
    elif workload == "cli":
        fit, sample = outputs["fit"], outputs["sample"]
        pk = pk_wait(d["arrival_rate"], d["mu"], d["var"])
        out += [
            ("fit", "exit code 1", dataclasses.replace(fit, returncode=1), "exit_code"),
            ("fit", "one stage too many",
             _replace_text(fit, lambda s: s.replace("]}", ", 1e9]}", 1)), "stages"),
            ("fit", "a rate changed",
             _replace_text(fit, lambda s: s.replace('"rates": [', '"rates": [1e-3, ', 1)),
             "targets"),
            ("sample", "file truncated by one line",
             _replace_text(sample, lambda s: _sample_lines(s, lambda v: v[:-1])), "layout"),
            ("sample", "every value 1 % too large",
             _replace_text(sample, lambda s: _sample_lines(
                 s, lambda v: [repr(float(x) * 1.01) for x in v])), "mean"),
            ("sample", "values permuted",
             _replace_text(sample, lambda s: _sample_lines(s, lambda v: list(rng.permutation(v)))),
             "first_draws"),
            ("moments", "third moment off by 1e-8",
             _replace_text(outputs["moments"], lambda s: _scaled_moment(s, 3, 1 + 1e-8)),
             "closed_form"),
            ("export", "a DOT edge dropped", _replace_text(outputs["export"], _drop_edge),
             "dot_edges"),
            ("verify", "FAIL printed", _replace_text(outputs["verify"], lambda s: "FAIL\n"),
             "pass"),
            ("simulate", "pk_mean_wait 10 % off",
             _replace_text(outputs["simulate"], lambda s: _field(
                 s, "pk_mean_wait", lambda v: repr(float(v) * 1.1))), "pk_mean_wait"),
            ("simulate", "mean wait 10 % above P-K",
             _replace_text(outputs["simulate"], lambda s: _field(
                 s, "mean_wait", lambda v: repr(1.1 * pk))), "wait_vs_pk"),
            ("simulate", "one customer short",
             _replace_text(outputs["simulate"], lambda s: _field(
                 s, "n_served", lambda v: str(int(v) - 1))), "n_served"),
        ]
        out += [(job, "exit code 2", dataclasses.replace(outputs[job], returncode=2), "exit_code")
                for job in ("sample", "moments", "export", "verify", "simulate")]
    return [m if len(m) == 5 else (*m, True) for m in out]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out", prefix="selftest-") as tmp:
        for workload in WORKLOADS:
            ok &= check_workload(workload, args.seed, Path(tmp))
    print("selftest:", "every check rejects its wrong output" if ok else "FAILED")
    return 0 if ok else 1


def check_workload(workload: str, seed: int, work: Path) -> bool:
    """One pass of the workload; True if the real outputs pass and every
    check rejects the wrong outputs it must reject."""
    ok = True
    inputs = build_inputs(workload, seed)
    plan = plan_for(inputs)
    outputs = {}
    for job in jobs_for(inputs, BENCH.parent, work):
        outputs[job.name] = run_job(job, outputs)
    for job, checks in plan.items():
        for name, fn in checks.items():
            if not evaluate(fn, outputs[job], outputs) and job != "cdf.stiff":
                print(f"FAIL {workload} {job}:{name} rejects the real output")
                ok = False
    exercised = set()
    for job, what, wrong, check, required in mutations(workload, inputs, outputs):
        rejected = not evaluate(plan[job][check], wrong, {**outputs, job: wrong})
        exercised.add((job, re.sub(r"\[\d+\]", "[i]", check)))
        verdict = "rejected" if rejected else ("MISSED" if required else "not resolved")
        print(f"{workload:8s} {job:34s} {check:24s} {what:40s} {verdict}")
        ok &= rejected or not required
    for job, checks in plan.items():
        for name in checks:
            if (job, re.sub(r"\[\d+\]", "[i]", name)) not in exercised:
                print(f"FAIL {workload} {job}:{name} is never fed a wrong output")
                ok = False
    return ok


if __name__ == "__main__":
    sys.exit(main())
