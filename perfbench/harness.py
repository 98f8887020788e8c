"""Passes, checks and metrics of the benchmark; `run.py` is the entry point.

An untraced run times passes of one workload and reports its end-to-end
metrics. A traced run times the job lists of all four workloads under
spans and reports the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import pickle
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from checks import evaluate, plan_for
from spans import Tracer
from workloads import (WORKLOADS, CliRun, Raised, build_inputs, jobs_for, run_child,
                       run_job)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROBES = 3  # fresh interpreters per import figure
SETUP_PROBES = 5  # fresh interpreters per set-up figure, spread over the run
MIB = 2**20

# Fresh interpreter: import phasefit and build the workload's inputs.
PROBE = ("import sys\n"
         "sys.path.insert(0, sys.argv[3])\n"
         "import workloads\n"
         "workloads.build_inputs(sys.argv[1], int(sys.argv[2]))\n")

# Per-layer metric -> (workload, job) whose median traced duration it is.
JOB_METRICS = {
    "sampling.sample_n.exponential_s": ("stream", "sample_n.exponential"),
    "sampling.sample_n.almost_erlang3_s": ("stream", "sample_n.almost_erlang3"),
    "sampling.sample_n.almost_erlang20_s": ("stream", "sample_n.almost_erlang20"),
    "sampling.sample_n.hyper_atom_s": ("stream", "sample_n.hyper_atom"),
    "sampling.sample_n.sauer_chandy_s": ("stream", "sample_n.sauer_chandy"),
    "fitting.fit_sweep_s": ("analytic", "fit_sweep"),
    "analysis.cdf.almost_erlang3_s": ("analytic", "cdf.almost_erlang3"),
    "analysis.cdf.almost_erlang20_s": ("analytic", "cdf.almost_erlang20"),
    "analysis.cdf.hyper_atom_s": ("analytic", "cdf.hyper_atom"),
    "analysis.pdf.almost_erlang20_s": ("analytic", "pdf.almost_erlang20"),
    "analysis.cdf.erlang_large_s": ("analytic", "cdf.erlang_large"),
    "analysis.moment_k.large_s": ("analytic", "moment_k.large"),
    "markov.exact_absorbing_ctmc_s": ("analytic", "exact_absorbing_ctmc"),
    "markov.absorption_time_moments_s": ("analytic", "absorption_time_moments"),
    "markov.export_s": ("analytic", "export"),
    "des.run_mph1.exp_rho07_s": ("queue", "run_mph1.exp_rho07"),
    "des.run_mph1.almost_erlang3_rho05_s": ("queue", "run_mph1.almost_erlang3_rho05"),
    "des.run_mph1.almost_erlang3_rho09_s": ("queue", "run_mph1.almost_erlang3_rho09"),
    "des.run_mph1.hyper_atom_rho08_s": ("queue", "run_mph1.hyper_atom_rho08"),
    "cli.fit_s": ("cli", "fit"),
    "cli.sample_s": ("cli", "sample"),
    "cli.moments_s": ("cli", "moments"),
    "cli.export_s": ("cli", "export"),
    "cli.verify_s": ("cli", "verify"),
    "cli.simulate_s": ("cli", "simulate"),
}
# Per-layer metric -> (workload, job, function): the function's total
# time inside that job, summed over the job's nested spans.
NESTED_METRICS = {
    "model.to_phase_type.large_s": ("analytic", "moment_k.large", "model.to_phase_type"),
}
# Per-layer metric -> (workload, job-name prefix): the largest tracemalloc
# peak above the job's starting level, over the jobs with that prefix.
ALLOC_METRICS = {
    "sampling.sample_n.peak_alloc_mib": ("stream", "sample_n."),
    "analysis.cdf.peak_alloc_mib": ("analytic", "cdf."),
    "analysis.moment_k.peak_alloc_mib": ("analytic", "moment_k."),
    "des.run_mph1.peak_alloc_mib": ("queue", "run_mph1."),
}


def digest(output) -> bytes:
    if isinstance(output, CliRun):  # the child's RSS is a measurement, not output
        output = (output.returncode, output.stdout, output.stderr)
    return hashlib.sha256(pickle.dumps(output, protocol=4)).digest()


class Ledger:
    """Counts every check of every pass as one attempted operation.

    A verdict is computed once per distinct output: it is reused when a
    job's output and every output before it in the pass are byte-identical
    to a pass already checked.
    """

    def __init__(self, plan: dict):
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.wrong: set[str] = set()
        self._memo: dict = {}

    def check(self, outputs: dict) -> None:
        chain = b""
        for name, out in outputs.items():
            chain = hashlib.sha256(chain + digest(out)).digest()
            verdicts = self._memo.get((name, chain))
            if verdicts is None:
                verdicts = [(c, evaluate(fn, out, outputs)) for c, fn in self.plan[name].items()]
                self._memo[(name, chain)] = verdicts
            for check_name, ok in verdicts:
                self.attempted += 1
                if not ok:
                    self.failed += 1
                    if not isinstance(out, Raised):
                        self.wrong.add(f"{name}:{check_name}")


def run_pass(jobs, tracer=None, prefix="", allocs=None):
    """Run every job once, in order. Returns the wall time, the outputs and,
    when traced, each job's spans summed per function.

    With a tracer each job is a span; with `allocs` (a dict) tracemalloc
    is running and each job's peak above its starting level is stored."""
    outputs, marks = {}, []
    t0 = time.perf_counter()
    for job in jobs:
        if tracer is None:
            outputs[job.name] = run_job(job, outputs)
            continue
        if allocs is not None:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        marks.append(tracer.mark())
        rec = tracer.enter(f"{prefix}{job.name}")
        outputs[job.name] = run_job(job, outputs)
        tracer.exit(rec)
        if allocs is not None:
            allocs[job.name] = (tracemalloc.get_traced_memory()[1] - base) / MIB
    elapsed = time.perf_counter() - t0
    fns = {}
    if tracer is not None:
        ends = marks[1:] + [tracer.mark()]
        fns = {job.name: tracer.aggregate(a, b) for job, a, b in zip(jobs, marks, ends)}
        tracer.clear()
    return elapsed, outputs, fns


def fresh_run(argv: list[str], work: Path) -> tuple[float, CliRun]:
    """One fresh process running argv: its wall time and result. A probe
    that fails stops the run."""
    t0 = time.perf_counter()
    res = run_child(argv, ROOT, work)
    elapsed = time.perf_counter() - t0
    if res.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {res.returncode}: "
                           f"{res.stderr.decode()[-400:]}")
    return elapsed, res


def fresh_runs(argv: list[str], work: Path) -> list[tuple[float, CliRun]]:
    """PROBES fresh processes running argv, one after another."""
    return [fresh_run(argv, work) for _ in range(PROBES)]


def import_cumulative_s(module: str, work: Path) -> float:
    """Median cumulative import time of `module` in a fresh interpreter,
    from the first `python -X importtime` line that names it (a later line
    for the same name is the import statement, parent package included)."""
    values = []
    for _, res in fresh_runs([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                             work):
        cumulative = [int(parts[1]) * 1e-6 for parts in
                      (line.split("|") for line in res.stderr.decode().splitlines())
                      if len(parts) == 3 and parts[2].strip() == module]
        if not cumulative:
            raise RuntimeError(f"no importtime line for {module}")
        values.append(cumulative[0])
    return statistics.median(values)


def cli_peak_kib(outputs: dict) -> int:
    return max((o.maxrss_kib for o in outputs.values() if isinstance(o, CliRun)), default=0)


def untraced(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    inputs = build_inputs(workload, seed)
    # Set-up: fresh interpreters import phasefit and build the inputs. The
    # host's speed drifts over tens of seconds, so the probes are spread
    # over the run, between passes, rather than taken at one moment.
    probe = [sys.executable, "-c", PROBE, workload, str(seed), str(BENCH)]
    setup = [fresh_run(probe, work)[0]]
    jobs = jobs_for(inputs, ROOT, work)
    ledger = Ledger(plan_for(inputs))
    warm, outputs, _ = run_pass(jobs)  # warm-up, discarded
    ledger.check(outputs)
    child_peak = cli_peak_kib(outputs)
    del outputs
    # The warm-up and the timed passes together fill --seconds, so a run
    # lasts about --seconds plus set-up whatever the pass length.
    times: list[float] = []
    while not times or warm + sum(times) < seconds:
        elapsed, outputs, _ = run_pass(jobs)
        times.append(elapsed)
        ledger.check(outputs)
        child_peak = max(child_peak, cli_peak_kib(outputs))
        del outputs
        done = warm + sum(times)
        if len(setup) < SETUP_PROBES and done * SETUP_PROBES >= len(setup) * seconds:
            setup.append(fresh_run(probe, work)[0])
    while len(setup) < SETUP_PROBES:
        setup.append(fresh_run(probe, work)[0])
    peak_kib = (child_peak if workload == "cli"
                else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(times), "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }
    return result(ledger, metrics), {"passes": times, "setup_probes": setup}


def traced(seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    cli_import = fresh_runs([sys.executable, "-c", "import phasefit.cli"], work)
    imports = {
        "analysis.import_s": import_cumulative_s("phasefit.analysis", work),
        "cli.import_s": statistics.median(t for t, _ in cli_import),
    }
    inputs = {w: build_inputs(w, seed) for w in WORKLOADS}
    jobs = {w: jobs_for(inputs[w], ROOT, work) for w in WORKLOADS}
    ledgers = {w: Ledger(plan_for(inputs[w])) for w in WORKLOADS}
    allocs: dict = {w: {} for w in WORKLOADS if w != "cli"}
    rounds: list[dict] = []
    tracer = Tracer()
    tracer.install()
    try:
        # Warm-up round under tracemalloc: memory peaks; its time only
        # counts toward --seconds.
        tracemalloc.start()
        warm = 0.0
        for w in WORKLOADS:
            elapsed, outputs, _ = run_pass(jobs[w], tracer, f"{w}:", allocs.get(w))
            warm += elapsed
            ledgers[w].check(outputs)
        tracemalloc.stop()
        del outputs
        while not rounds or warm + sum(r[w]["pass_s"] for r in rounds
                                       for w in WORKLOADS) < seconds:
            record = {}
            for w in WORKLOADS:
                elapsed, outputs, fns = run_pass(jobs[w], tracer, f"{w}:")
                ledgers[w].check(outputs)
                record[w] = {"pass_s": elapsed, "jobs": fns}
                if w == "stream":
                    uniforms = sum(o.uniforms_used for o in outputs.values())
                elif w == "queue":
                    served = sum(o.n_served for o in outputs.values())
                elif w == "cli":
                    sample_mib = len(outputs["sample"].stdout) / MIB
                del outputs
            rounds.append(record)
    finally:
        tracer.uninstall()

    def median_total(w: str, job: str, fn: str) -> float:
        return statistics.median(r[w]["jobs"][job][fn][1] for r in rounds)

    metrics = {name: (median_total(w, job, f"{w}:{job}"), "s")
               for name, (w, job) in JOB_METRICS.items()}
    for name, (w, job, fn) in NESTED_METRICS.items():
        metrics[name] = (median_total(w, job, fn), "s")
    for name, (w, prefix) in ALLOC_METRICS.items():
        metrics[name] = (max(v for k, v in allocs[w].items() if k.startswith(prefix)), "MiB")
    metrics["sampling.uniforms_used"] = (uniforms, "count")
    metrics["des.customers_served"] = (served, "count")
    metrics["cli.sample.stdout_mib"] = (sample_mib, "MiB")
    for name, value in imports.items():
        metrics[name] = (value, "s")
    total = Ledger({})
    for ledger in ledgers.values():
        total.attempted += ledger.attempted
        total.failed += ledger.failed
        total.wrong |= ledger.wrong
    trace = {"rounds": rounds, "allocs_mib": allocs,
             "traced_pass_s": {w: statistics.median(r[w]["pass_s"] for r in rounds)
                               for w in WORKLOADS}}
    return result(total, metrics), trace


def result(ledger: Ledger, metrics: dict) -> dict:
    return {
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
