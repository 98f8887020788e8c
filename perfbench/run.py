"""Benchmark of phasefit: four workloads, untraced or traced.

    python3 perfbench/run.py --workload {stream,analytic,queue,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from its
`src/` directory and nowhere else, and the run exits 2 without a result if
that directory is missing. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones of the chosen workload; with `--trace 1`
the job lists of all four workloads run under the tracer and the metrics
are the per-layer ones. See README.md.
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="stream, analytic, queue or cli")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "phasefit" / "__init__.py").is_file():
        print(f"perfbench: no phasefit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # One BLAS thread, here and in every child: steadier timings on a small
    # shared machine. Set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    import harness
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="work-") as tmp:
        if args.trace:
            res, record = harness.traced(args.seed, args.seconds, Path(tmp))
        else:
            res, record = harness.untraced(args.workload, args.seed, args.seconds, Path(tmp))
    mode = "trace" if args.trace else "run"
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, result=res)
    (out / f"{mode}-{args.workload}-{args.seed}.json").write_text(json.dumps(record))
    if res["failed"]:
        print(f"perfbench: {res['failed']} of {res['attempted']} checks failed",
              file=sys.stderr)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
