"""Command-line front end.

Model JSON goes to stdout, diagnostics to stderr, so pipelines compose.
Exit codes: 0 success/PASS, 1 verification FAIL, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

from . import analysis, des, fitting, markov, sampling
from .errors import PhasefitError
from .model import model_from_json, model_to_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _load_model(path: str):
    with open(path) as f:
        return model_from_json(f.read())


def _model_hash(model) -> str:
    return hashlib.sha256(model_to_json(model).encode()).hexdigest()[:16]


def _read_data_csv(path: str) -> list[float]:
    with open(path) as f:
        lines = (line.strip() for line in f)
        return [float(line) for line in lines if line and not line.startswith("#")]


def _print_fit_diagnostics(fit: fitting.FitResult) -> None:
    err = sys.stderr
    print(f"family={fit.family}", file=err)
    print(f"n_transient={fit.n_transient}", file=err)
    print(f"target_mean={fit.target.mean!r} target_variance={fit.target.variance!r}", file=err)
    print(f"achieved_mean={fit.achieved.mean!r} achieved_variance={fit.achieved.variance!r}", file=err)
    print(f"alpha={fit.alpha_n!r}", file=err)
    # minimum achievable E[T^2]/mu^2 for this topology and its state bound
    bound = analysis.min_second_moment([b.prob for b in fit.model.branches],
                                       [b.length for b in fit.model.branches],
                                       fit.target.mean)
    print(f"min_second_moment_ratio={bound.ratio_min!r}", file=err)
    print(f"lower_bound={bound.lower_bound!r}", file=err)


# --family name -> fitting function; hyper:P is parsed apart, as it carries P
FAMILIES = {"auto": fitting.fit_two_moments, "almost-erlang": fitting.almost_erlang,
            "simplest-hyper": fitting.simplest_hyper, "sauer-chandy": fitting.sauer_chandy}


def cmd_fit(args) -> int:
    if args.data is not None:
        stats = fitting.sample_stats(_read_data_csv(args.data))
        mu, sigma2 = stats.mean, stats.variance
    else:
        mu, sigma2 = args.mean, args.var
    if args.approx_deterministic is not None:
        fit = fitting.erlang_approximation(mu, args.approx_deterministic)
    elif args.family.startswith("hyper:"):
        fit = fitting.hyper_family(mu, sigma2, float(args.family.split(":", 1)[1]))
    elif args.family in FAMILIES:
        fit = FAMILIES[args.family](mu, sigma2)
    else:
        raise PhasefitError(f"unknown family {args.family!r}")
    _print_fit_diagnostics(fit)
    print(model_to_json(fit.model))
    return EXIT_OK


def cmd_sample(args) -> int:
    model = _load_model(args.model)
    if args.n == 0:
        return EXIT_OK
    # drawn before the header, so a bad -n prints nothing
    xs = sampling.sample_n(model, sampling.SamplerState(args.seed), args.n)
    print(f"# seed={args.seed}")
    print(f"# model={_model_hash(model)}")
    print(f"# generator={sampling.GENERATOR_NAME}")
    print("\n".join(map(repr, xs.tolist())))
    return EXIT_OK


def cmd_moments(args) -> int:
    model = _load_model(args.model)
    # all computed before printing, so a moment past the float range prints
    # nothing; a k below 1 is passed to moment_k, which refuses it
    moments = [analysis.moment_k(model, k) for k in range(min(args.k, 1), args.k + 1)]
    for k, value in enumerate(moments, 1):
        print(f"{k}\t{value!r}")
    return EXIT_OK


def cmd_export(args) -> int:
    model = _load_model(args.model)
    if args.approx_routing is not None:
        ctmc = markov.approx_ctmc(model, args.approx_routing)
    else:
        ctmc = markov.exact_absorbing_ctmc(model)
    if args.format == "ctmc-json":  # by rows, as the whole text would double the peak; unlike
        # sample and moments, a failure partway leaves the rows written so far on stdout
        sys.stdout.writelines(markov.export_json_pieces(ctmc))
        print()
    else:
        print(markov.export_dot(ctmc))
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _load_model(args.model)
    report = sampling.empirical_check(
        model, args.n, args.seed,
        expected_mean=args.expect_mean, expected_variance=args.expect_var,
    )
    err = sys.stderr
    print(f"n={report.n}", file=err)
    print(f"sample_mean={report.sample_mean!r} analytic_mean={report.analytic_mean!r} "
          f"se_mean={report.se_mean!r}", file=err)
    print(f"sample_variance={report.sample_variance!r} "
          f"analytic_variance={report.analytic_variance!r} "
          f"se_variance={report.se_variance!r}", file=err)
    print(f"zero_fraction={report.zero_fraction!r}", file=err)
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_simulate(args) -> int:
    service = _load_model(args.service)
    stats = des.run_mph1(args.arrival_rate, service, n_customers=args.customers, seed=args.seed)
    for key, value in dataclasses.asdict(stats).items():
        print(f"{key}={value!r}")
    try:
        pk = des.pk_mean_wait(args.arrival_rate, analysis.summarize(service))
        print(f"pk_mean_wait={pk!r}")
    except PhasefitError:
        pass
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasefit",
        description="Generalized Cox distributions: fit, sample, analyze, export, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    model_opt = argparse.ArgumentParser(add_help=False)
    model_opt.add_argument("--model", required=True)
    seed_opt = argparse.ArgumentParser(add_help=False)
    # a string default is converted by type only when --seed is absent
    seed_opt.add_argument("--seed", type=int, default=os.environ.get("PHASEFIT_SEED", "0"))

    p = sub.add_parser("fit", help="fit a minimal model to mean/variance targets")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mean", type=float, help="target mean")
    group.add_argument("--data", help="CSV of observations (one per line)")
    p.add_argument("--var", type=float, help="target variance (with --mean)")
    p.add_argument("--family", default="auto",
                   help="auto|almost-erlang|simplest-hyper|hyper:P|sauer-chandy")
    p.add_argument("--approx-deterministic", type=int, metavar="N",
                   help="build an Erlang-N approximation of a deterministic delay")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", parents=[model_opt, seed_opt],
                       help="draw random variates from a model")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("moments", parents=[model_opt], help="raw moments 1..K of a model")
    p.add_argument("-k", type=int, default=2)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("export", parents=[model_opt], help="export the absorbing CTMC")
    p.add_argument("--format", choices=["ctmc-json", "dot"], default="ctmc-json")
    p.add_argument("--approx-routing", type=float, metavar="BIGLAMBDA",
                   help="use the huge-rate routing state at this rate")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("verify", parents=[model_opt, seed_opt],
                       help="empirical moment check of a model")
    p.add_argument("-n", type=int, default=1_000_000)
    p.add_argument("--expect-mean", type=float,
                   help="check against this mean instead of the model's own")
    p.add_argument("--expect-var", type=float,
                   help="check against this variance instead of the model's own")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", parents=[seed_opt], help="M/PH/1 queue simulation")
    p.add_argument("--service", required=True)
    p.add_argument("--arrival-rate", type=float, required=True)
    p.add_argument("--customers", type=int, default=500_000)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fit" and args.data is None and args.var is None \
            and args.approx_deterministic is None:
        parser.error("fit requires --var with --mean")
    try:
        return args.func(args)
    except PhasefitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, MemoryError) as exc:  # a MemoryError may have no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
