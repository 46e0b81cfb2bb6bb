"""One pass of one benchmark workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR
                                [--traced] [--spans FILE] [--probe]

Set-up (interpreter start, ``import nucleate``, writing generated inputs)
ends when the worker reads the monotonic clock, which it reports as
`ready`; the parent subtracts the moment it started the process.  The
worker then makes the workload's one ``nucleate.cli.main`` call, with the
CLI's standard output going to DIR/stdout.txt and a fixed reference loop
timed just before and just after it, and prints one JSON line: ready,
wall_s, reference_s, exit code, peak RSS and, with --traced, the per-layer
figures.  --probe stops after set-up.
"""

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_ITERATIONS = 1_000_000


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python integer loop (about 0.1 s).

    A shared 2-core machine changes speed by 10-20% within tens of
    seconds; the loop's time is the speed of the moment, and wall time
    over it cancels most of that drift.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import nucleate.cli as cli
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.prepare(args.work)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    argv = workload.argv(ROOT, args.work, args.work / "out", args.seed)
    reference = reference_loop()
    tracer = None
    if args.traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    code, error = None, None
    try:
        with open(args.work / "stdout.txt", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            except Exception:  # a crash is a failed pass, reported to the parent
                error = traceback.format_exc()
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    reference += reference_loop()

    result = {
        "ready": ready,
        "wall_s": wall,
        "reference_s": reference / 2,
        "exit": code,
        "error": error,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["missing"] = tracer.missing
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
