"""The nucleate benchmark: four CLI workloads, end-to-end metrics, and a
traced run for per-layer figures.

    python3 perfbench/run.py --workload {campaign,assemble,fidelity,meshsim-3d}
                             --seed N --seconds S --trace {0,1}

Run it from anywhere; it works on the checkout it lives in.  A pass is one
``nucleate`` CLI call (see workloads.py) made in a fresh single-threaded
process by worker.py, with ``NUCLEATE_THREADS`` unset and ``--parallel``
off, as a user runs it.  The seed is the CLI's ``--seed``, so one seed
gives the same inputs and, pass after pass, the same output bytes.  Passes
repeat, closed loop, until the next one would end after S seconds (with a
floor of three passes).

The first pass's outputs get the workload's full checks; every later pass
must reproduce its output bytes exactly.  A pass fails when the CLI exits
non-zero, crashes, or its outputs fail a check; ``failed / attempted`` is
the run's error ratio.

--trace 0 reports the end-to-end metrics, each from the medians over the
passes: wall_ref (the CLI call's wall time over the time of a fixed
reference loop run beside it in the same processes, which cancels most of
the machine's speed drift), setup_s (process start to the first timed call:
interpreter, ``import nucleate``, generated inputs) and peak_rss_mb.  It also prints,
unbounded, the median wall_s and the workload's units of work per second
(cell-rounds, stages or samples).

--trace 1 alternates traced and untraced passes.  A traced pass wraps the
program's public functions (tracer.py) and reports per-layer calls, self
times and counts, as medians over the traced passes.  Exact counts must
repeat between traced passes and the layers a workload bypasses must read
zero; trace.overhead_s is the traced minus the untraced median wall time.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
machine and run context, every pass and the metrics are also written to
.perfbench/<workload>/, and the spans of the first traced pass with them.
Exits 2 without a result when the checkout holds no nucleate sources or
NUCLEATE_THREADS is set to anything but 1.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT_COUNTS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_ROOT = ROOT / ".perfbench"
THREADS_ENV = "NUCLEATE_THREADS"
MIN_PASSES = 3
#: a run stops starting passes, and kills a hung one, after this long
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"wall_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us_per_call") or name.endswith(".us_per_stage"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def run_context(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env=os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "seed": seed,
        THREADS_ENV: os.environ.get(THREADS_ENV, "unset"),
    }


def output_digest(work: Path) -> str:
    """sha256 over the CLI's standard output and every file it wrote."""
    h = hashlib.sha256((work / "stdout.txt").read_bytes())
    out = work / "out"
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            h.update(str(path.relative_to(out)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def launch(workload, seed: int, work: Path, env: dict, timeout: float, *extra: str) -> dict:
    """Start one worker process and wait for its report; adds setup_s, or
    an "error" entry when the process itself failed."""
    shutil.rmtree(work / "out", ignore_errors=True)
    cmd = [sys.executable, str(WORKER), "--workload", workload.name,
           "--seed", str(seed), "--work", str(work), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"pass ran past the run's {RUN_LIMIT_S} s limit and was killed"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - started
    return report


def check_pass(workload, seed: int, work: Path, report: dict, baseline: dict) -> list:
    """Failures of one pass.  `baseline` holds the output digest of the
    first fully checked pass and the counts of the first traced pass."""
    if report.get("error"):
        return [report["error"].strip().splitlines()[-1]]
    if report["exit"] != 0:
        return [f"CLI exited with {report['exit']}"]
    failures = []
    digest = output_digest(work)
    if "digest" not in baseline:
        stdout = (work / "stdout.txt").read_text(encoding="utf-8")
        try:
            failures += workload.check(ROOT, work, work / "out", stdout, seed)
        except Exception as e:  # malformed output can fail in any way
            failures.append(f"output check raised {e!r}")
        if not failures:
            baseline["digest"] = digest
    elif digest != baseline["digest"]:
        failures.append("outputs differ from the first pass of the same seed")

    layers = report.get("layers")
    if layers is not None:
        counts = {name: layers[name] for name in EXACT_COUNTS}
        first = baseline.setdefault("counts", counts)
        failures += [f"{name} = {counts[name]}, first traced pass had {first[name]}"
                     for name in EXACT_COUNTS if counts[name] != first[name]]
        failures += [f"bypassed layer count {name} = {layers[name]}, expected 0"
                     for name in workload.bypassed if layers[name] != 0]
    return failures


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    limit = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "nucleate" / "cli.py").is_file():
        print(f"perfbench: no nucleate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = os.environ.get(THREADS_ENV)
    if threads not in (None, "1"):
        print(f"perfbench: refusing to run with {THREADS_ENV}={threads!r}; "
              "the benchmark measures the single-threaded default", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Bytecode caching on, as for a user, with the cache kept under WORK_ROOT
    env = {k: v for k, v in os.environ.items()
           if k not in (THREADS_ENV, "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPYCACHEPREFIX"] = str(WORK_ROOT / "pycache")
    context = run_context(args.seed)

    work = WORK_ROOT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans_file = work / f"spans-seed{args.seed}.json"
    # fills the bytecode and file caches, which a user's second call finds warm
    warm = launch(workload, args.seed, work, env, limit - time.monotonic(), "--probe")
    if "error" in warm:
        print(f"perfbench: set-up failed: {warm['error']}", file=sys.stderr)
        return 1

    passes, durations, baseline = [], [], {}
    started = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        extra = ["--traced"] if traced else []
        if traced and not spans_file.exists():
            extra += ["--spans", str(spans_file)]
        t = time.monotonic()
        report = launch(workload, args.seed, work, env, limit - time.monotonic(), *extra)
        report["traced"] = traced
        report["failures"] = check_pass(workload, args.seed, work, report, baseline)
        passes.append(report)
        durations.append(time.monotonic() - t)
        next_end = time.monotonic() - started + max(durations[-2:])
        if (len(passes) >= MIN_PASSES and next_end > args.seconds) or \
                time.monotonic() >= limit:
            break

    failed = sum(1 for p in passes if p["failures"])
    timed = [p for p in passes if "wall_s" in p and p["exit"] is not None]
    plain = [p for p in timed if not p["traced"]]
    if not plain or (args.trace and not any(p["traced"] for p in timed)):
        for i, p in enumerate(passes, 1):
            print(f"pass {i}: {'; '.join(p['failures'])}", file=sys.stderr)
        print("perfbench: no pass completed", file=sys.stderr)
        return 1

    walls = [p["wall_s"] for p in plain]
    if args.trace:
        traced_passes = [p for p in timed if p["traced"]]
        # counts keep their integer value; times and ratios take the median
        values = {name: (statistics.median_low if isinstance(first, int) else statistics.median)(
                      [p["layers"][name] for p in traced_passes])
                  for name, first in traced_passes[0]["layers"].items()}
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced_passes) - statistics.median(walls))
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        values = {
            "wall_ref": statistics.median(walls) / statistics.median(
                p["reference_s"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] for p in timed),
            "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in plain),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}

    n_traced = sum(1 for p in passes if p["traced"])
    print(f"perfbench {workload.name}: seed {args.seed}, {len(passes)} passes "
          f"({n_traced} traced) in {time.monotonic() - started:.1f} s")
    print("context: " + " ".join(f"{k}={v}" for k, v in context.items()))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        missing = sorted({m for p in timed if p["traced"] for m in p["missing"]})
        if missing:
            print(f"  bindings not found, their layers read 0: {', '.join(missing)}")
    else:
        lo, hi = quartiles(walls)
        print(f"  {'wall_s':34s} {statistics.median(walls):>16.6g} s      median of "
              f"{len(walls)} passes, quartiles {lo:.4f} .. {hi:.4f}")
        print(f"  {workload.work_metric:34s} "
              f"{statistics.median(workload.work / w for w in walls):>16.6g} 1/s    "
              f"{workload.work} units of work per pass")
    print(f"  {'error_ratio':34s} {failed:>16d}/{len(passes)} passes failed")
    for i, p in enumerate(passes, 1):
        for failure in p["failures"]:
            print(f"  pass {i} failed: {failure}")

    record = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "context": context, "passes": passes, "metrics": metrics}
    (work / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
