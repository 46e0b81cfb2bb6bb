"""Check that two source trees give byte-identical benchmark outputs.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE [--seeds 0-4]

For each tree, each workload in that tree's ``perfbench/workloads.py`` and
each seed, a fresh Python process with the tree's ``src`` on PYTHONPATH
runs the workload's ``prepare`` and then its one ``nucleate`` CLI call
(``argv``), as the benchmark's worker does.  The CLI's exit code, its
standard output and every file under the work directory (generated
inputs and artifacts, by relative path) go into one sha256.  Both trees
use the same work directory path, so a path an output records does not
differ between them.  The workloads file is only imported, never edited.

The fixed calls of ``EXTRA_CALLS``, defined here, then run and are hashed
the same way, for each seed: they reach writer inputs the workloads miss,
and what assemble and meshsim print when no --out is given.

Prints one line per (workload or extra call, seed) with both digests and
``same``, ``DIFFERS`` or, when either CLI call exits non-zero, ``FAILED``;
exits 1 when any line is not ``same`` or the trees list different
workloads, else 0.  Seeds are given as ``A-B`` (inclusive), ``A,B,...``
or one number.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

#: run in the child: argv is (tree, name, seed, work dir[, calls]).  A
#: workload name runs that workload's prepare and CLI call; any other name
#: runs `calls`, a JSON list of CLI argument lists, in order, stopping at
#: and exiting with the first non-zero code.  With no name it prints the
#: tree's workload names, one a line.
CHILD = r"""
import contextlib, json, sys
from pathlib import Path
tree = Path(sys.argv[1])
sys.path.insert(0, str(tree / "perfbench"))
from workloads import WORKLOADS
if len(sys.argv) == 2:
    print(*WORKLOADS, sep="\n")
    sys.exit(0)
import nucleate.cli as cli
name, seed, work = sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
if name in WORKLOADS:
    WORKLOADS[name].prepare(work)
    calls = [WORKLOADS[name].argv(tree, work, work / "out", seed)]
else:
    calls = json.loads(sys.argv[5])
code = 0
with open(work / "stdout.txt", "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
    for argv in calls:
        code = code or cli.main(argv)
sys.exit(code)
"""

#: name -> the CLI calls it runs, in order, in one work directory.  Model
#: paths are relative to the tree; "{out}" is the work directory's out/ and
#: "{seed}" the seed.  They cover writer inputs the workloads miss: a
#: partial 2-D colouring (meshsim), a `check` of that file, tstar grown
#: on windows of one and four cells, and its pixmap snapshot (--ppm) on
#: a window of side 8; the standard output of
#: meshsim and assemble without --out, in both formats; that of an
#: untraced meshsim run in the general regime (fidelity2 detaches), and
#: the artifacts of a traced one, whose round 1 is read from the plan's
#: template (fidelity2 wakes nobody at round 0); fidelity on a window of
#: side 2; a campaign read from a model file (`experiment --model`, whose
#: results record the file's hash); `lint-model` on each shipped model
#: file; and the edge windows of the numbered mesh rounds: meshsim on a
#: window of one cell, whose every neighbor row is the off-mesh number,
#: and a campaign on sides 1, 2 and 3.
PARTIAL_2D = ["meshsim", "--model", "src/nucleate/data/checkerboard_local.json",
              "--size", "16", "--rounds", "5", "--seed", "{seed}"]
TSTAR = ["assemble", "--model", "src/nucleate/data/tstar.json", "--check-coloring",
         "--check-determinism", "--seed", "{seed}"]
OUT = ["--out", "{out}"]
GENERAL_2D = ["meshsim", "--model", "src/nucleate/data/fidelity2.json",
              "--size", "16", "--rounds", "12", "--seed", "{seed}"]
SHIPPED = ["src/nucleate/data/checkerboard_local.json", "src/nucleate/data/fidelity2.json",
           "src/nucleate/data/tstar.json"]
EXTRA_CALLS = {
    "meshsim-2d-16": [PARTIAL_2D + OUT],
    "check-2d-16": [PARTIAL_2D + OUT, ["check", "--coloring", "{out}/coloring.json",
                                       "--out", "{out}/check"]],
    "assemble-1": [TSTAR + OUT + ["--size", "1"]],
    "assemble-2": [TSTAR + OUT + ["--size", "2"]],
    "assemble-ppm": [TSTAR + OUT + ["--size", "8", "--ppm"]],
    "meshsim-print": [PARTIAL_2D],
    "meshsim-json": [PARTIAL_2D + ["--format", "json"]],
    "assemble-print": [TSTAR + ["--size", "16"]],
    "assemble-json": [TSTAR + ["--size", "16", "--format", "json"]],
    "meshsim-general-json": [GENERAL_2D + ["--format", "json"]],
    "meshsim-general-out": [GENERAL_2D + OUT],
    "fidelity-2": [["fidelity", "--model", SHIPPED[1], "--size", "2", "--samples", "2000",
                    "--seed", "{seed}"]],
    "experiment-model": [["experiment", "--model", SHIPPED[0], "--sizes", "4,8",
                          "--rounds", "3", "--trials", "5", "--seed", "{seed}",
                          "--out", "{out}"]],
    "lint-model": [["lint-model", "--model", path] for path in SHIPPED],
    "meshsim-side-1": [PARTIAL_2D + ["--size", "1"] + OUT],
    "experiment-tiny": [["experiment", "--rule", "checkerboard-local", "--sizes", "1,2,3",
                         "--rounds", "4", "--trials", "6", "--seed", "{seed}",
                         "--out", "{out}"]],
}


def parse_seeds(text: str) -> list[int]:
    first, dash, last = text.partition("-")
    if dash:
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def _child(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-c", CHILD, str(tree), *args], cwd=tree,
                          env=env, capture_output=True, text=True)


def workload_names(tree: Path) -> list[str]:
    proc = _child(tree)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: cannot read perfbench/workloads.py\n{proc.stderr}")
    return proc.stdout.split()


def extra_calls(name: str, seed: int, work: Path) -> str:
    """`EXTRA_CALLS[name]` for one seed and work directory, as JSON."""
    fill = {"out": str(work / "out"), "seed": str(seed)}
    return json.dumps([[arg.format(**fill) for arg in argv] for argv in EXTRA_CALLS[name]])


def digest(tree: Path, name: str, seed: int, work: Path) -> tuple[str, int]:
    """(sha256 of one run's exit code and every file under `work`, the
    exit code).  `name` is a workload or a key of `EXTRA_CALLS`."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calls = () if name not in EXTRA_CALLS else (extra_calls(name, seed, work),)
    proc = _child(tree, name, str(seed), str(work), *calls)
    if proc.stderr:
        print(proc.stderr, end="", file=sys.stderr)
    h = hashlib.sha256(f"exit {proc.returncode}\n".encode())
    for path in sorted(work.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(work)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest(), proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-4"))
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    names = [workload_names(tree) for tree in trees]
    if names[0] != names[1]:
        print(f"workloads differ: {names[0]} vs {names[1]}")
        return 1
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        for name in names[0] + list(EXTRA_CALLS):
            for seed in args.seeds:
                (a, code_a), (b, code_b) = (digest(tree, name, seed, work)
                                            for tree in trees)
                verdict = ("FAILED" if code_a or code_b
                           else "same" if a == b else "DIFFERS")
                bad += verdict != "same"
                print(f"{name:<20} seed {seed:<4} {a[:16]} {b[:16]} {verdict}",
                      flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
