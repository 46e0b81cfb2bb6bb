"""The benchmark's workloads: one ``nucleate`` CLI call each, its unit of
work, and the checks its outputs must pass.

* campaign   -- the nucleation campaign of acceptance criterion 5 (sizes
  8..64, 10 rounds).  Message-free, boundary-only mesh rounds, the rng
  streams and the agents law; it never calls the tile engine.
* assemble   -- the seeded tile system the paper compares against, grown on
  a 128x128 window with coloring and determinism checks.  Engine, tiles,
  lattice, coloring and formats; it never touches meshnet, rng or the
  agents law, so it is the control for any simulator change.
* fidelity   -- mesh-vs-model comparison on 3x3 windows: tens of thousands
  of tiny networks, so per-network set-up, model_step and the exact law
  dominate.  It exposes a change that adds a fixed cost per network.
* meshsim-3d -- a generated k=3 model with message rules, detachment churn
  and trace recording on a 20^3 mesh: every occupant posts every round, so
  it bypasses any message-free fast path of the mesh simulator.

Trial and sample counts are sized so that one pass takes a few seconds on
a 2-core machine, leaving room for several passes in one run.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from nucleate import formats
from nucleate.agents import message_rule, neighbor_table
from nucleate.engine import AssemblySequence
from nucleate.experiment import load_experiment_json, parse_experiment_csv
from nucleate.lattice import Mesh

CAMPAIGN_SIZES = (8, 16, 32, 64)
CAMPAIGN_ROUNDS = 10
CAMPAIGN_TRIALS = 12
ASSEMBLE_SIZE = 128
FIDELITY_SAMPLES = 20_000
#: Criterion 4 allows a TV distance of 0.02 at 10^5 samples.  Sampling
#: error shrinks as 1/sqrt(samples), so the same allowance at this sample
#: count is 0.02 * sqrt(10^5 / samples), about 0.045.
FIDELITY_TV_BOUND = 0.02 * math.sqrt(100_000 / FIDELITY_SAMPLES)
MESHSIM_SIZE = 20
MESHSIM_ROUNDS = 30

TSTAR = Path("src/nucleate/data/tstar.json")
FIDELITY_MODEL = Path("src/nucleate/data/fidelity2.json")
PING3D_FILE = "ping3d.json"


def ping3d_document() -> dict:
    """Two `ping` agents on a 3-dimensional mesh: every side carries glue g
    (bond 1, temperature 2), nucleation 0.05, detachment on."""
    agents = [
        {"name": name, "color": color, "glues": ["g"] * 6, "rule": "ping"}
        for name, color in (("amber", 1), ("jade", 2))
    ]
    return {
        "name": "ping-3d",
        "agents": agents,
        "rules": [{"a": "g", "b": "g", "strength": 1}],
        "temperature": 2,
        "messages": ["p"],
        "pi_nu": 0.05,
        "kinetics": {"lambda_on": 0.5, "p_off": 0.2, "epsilon": 0.1, "detach": True},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    #: (root, work dir, out dir, seed) -> CLI arguments
    argv: Callable[[Path, Path, Path, int], list]
    #: units of work in one pass, and what they are
    work: int
    work_metric: str
    #: (root, work dir, out dir, stdout text, seed) -> list of failures
    check: Callable[[Path, Path, Path, str, int], list]
    #: per-layer counts that must read 0 in a traced pass: layers this
    #: workload bypasses, so that a change to them cannot move it
    bypassed: tuple = ()
    #: work dir -> None; writes generated inputs, counted as set-up
    prepare: Callable[[Path], None] = lambda work: None


# -- campaign -------------------------------------------------------------


def _campaign_argv(root, work, out, seed):
    return ["experiment", "--rule", "checkerboard-local", "--pi-nu", "0.1",
            "--sizes", ",".join(map(str, CAMPAIGN_SIZES)),
            "--rounds", str(CAMPAIGN_ROUNDS), "--trials", str(CAMPAIGN_TRIALS),
            "--seed", str(seed), "--out", str(out)]


def _campaign_check(root, work, out, stdout, seed):
    failures = []
    csv_text = (out / "results.csv").read_text(encoding="utf-8")
    if stdout != csv_text:
        failures.append("stdout differs from results.csv")
    rows = parse_experiment_csv(csv_text)
    result = load_experiment_json((out / "results.json").read_text(encoding="utf-8"))
    json_rows = [{"n": o.size, "trials": o.trials, "successes": o.successes,
                  "p_hat": o.p_hat, "ci_lo": o.ci_lo, "ci_hi": o.ci_hi}
                 for o in result.outcomes]
    if rows != json_rows:
        failures.append("results.csv and results.json do not parse back equal")
    if result.master_seed != seed:
        failures.append(f"results.json records seed {result.master_seed}, not {seed}")
    if [r["n"] for r in rows] != list(CAMPAIGN_SIZES) or any(
            r["trials"] != CAMPAIGN_TRIALS for r in rows):
        failures.append("results do not cover the requested sizes and trials")
    p_hats = [r["p_hat"] for r in rows]
    if any(a < b for a, b in zip(p_hats, p_hats[1:])):
        failures.append(f"p_hat increases with n: {p_hats}")
    if p_hats and p_hats[-1] > 0.05:
        failures.append(f"p_hat at n={CAMPAIGN_SIZES[-1]} is {p_hats[-1]} > 0.05")
    return failures


# -- assemble -------------------------------------------------------------


def _assemble_argv(root, work, out, seed):
    return ["assemble", "--model", str(root / TSTAR), "--size", str(ASSEMBLE_SIZE),
            "--check-coloring", "--check-determinism", "--expect-valid",
            "--seed", str(seed), "--out", str(out)]


def _assemble_check(root, work, out, stdout, seed):
    failures = []
    n = ASSEMBLE_SIZE
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    if not result["terminal"] or result["tiles"] != n * n:
        failures.append(f"run not terminal with {n * n} tiles: {result['tiles']} tiles")
    if result["seed"] != seed:
        failures.append(f"result.json records seed {result['seed']}, not {seed}")
    if not json.loads((out / "coloring_report.json").read_text(encoding="utf-8"))["valid"]:
        failures.append("weak coloring is not valid")
    if not json.loads((out / "determinism.json").read_text(encoding="utf-8"))["passed"]:
        failures.append("local determinism check failed")
    if stdout != (out / "snapshot.txt").read_text(encoding="utf-8"):
        failures.append("stdout differs from snapshot.txt")

    system, _ = formats.load_tile_system(root / TSTAR)
    text = (out / "trace.txt").read_text(encoding="utf-8")
    header, additions = formats.parse_assembly_trace(text)
    if header.get("system") != result["model"] or header.get("seed") != str(seed):
        failures.append("trace header does not name the model hash and seed")
    # AssemblySequence rejects repeated locations and non-increasing stages
    seq = AssemblySequence(system, Mesh(system.k, n), tuple(additions))
    if formats.assembly_trace_text(seq, result["model"], seed) != text:
        failures.append("trace.txt does not round-trip through parse_assembly_trace")
    cells = system.seed.cells() | {a.location: a.tile for a in additions}
    colors = {v: system.tiles[name].color for v, name in cells.items()}
    if formats.load_coloring(out / "coloring.json").assignment != colors:
        failures.append("trace additions do not reproduce coloring.json")
    return failures


# -- fidelity -------------------------------------------------------------


def _fidelity_argv(root, work, out, seed):
    return ["fidelity", "--model", str(root / FIDELITY_MODEL), "--size", "3",
            "--samples", str(FIDELITY_SAMPLES), "--seed", str(seed)]


def _fidelity_check(root, work, out, stdout, seed):
    failures = []
    doc = json.loads(stdout)
    if doc["samples"] != FIDELITY_SAMPLES or doc["seed"] != seed:
        failures.append("report does not record the requested samples and seed")
    support = doc["support"]
    if not (support["equal"] and support["exact"] == support["mesh"] == support["model"]):
        failures.append(f"supports differ: {support}")
    for key in ("tv_mesh_vs_model", "tv_mesh_vs_exact", "tv_model_vs_exact"):
        if not doc[key] <= FIDELITY_TV_BOUND:
            failures.append(f"{key} = {doc[key]} exceeds {FIDELITY_TV_BOUND:.4f}")
    return failures


# -- meshsim-3d -----------------------------------------------------------


def _ping3d_prepare(work):
    (work / PING3D_FILE).write_text(json.dumps(ping3d_document(), indent=2),
                                    encoding="utf-8")


def _meshsim_argv(root, work, out, seed):
    return ["meshsim", "--model", str(work / PING3D_FILE), "--size", str(MESHSIM_SIZE),
            "--rounds", str(MESHSIM_ROUNDS), "--seed", str(seed), "--out", str(out),
            "--format", "json"]


def _payload_failures(model, occupancy, table, v) -> int:
    """1 if the pairs v posts (its glues plus its rule's messages, fed the
    glues facing it) leave the model's declared sets, else 0."""
    name = occupancy[v]
    agent = model.types[name]
    d = model.d
    if agent.rule is None:
        messages = (None,) * d
    else:
        glues_in = [None] * d
        for i, w, j in table[v]:
            other = occupancy.get(w)
            if other is not None:
                glues_in[i] = model.types[other].glues[j]
        messages = message_rule(agent.rule)(name, tuple(glues_in), (None,) * d, None).messages
    labels = model.glue_labels
    bad = len(messages) != d or any(m is not None and m not in model.messages for m in messages)
    bad = bad or any(g is not None and g not in labels for g in agent.glues)
    return int(bad)


def _meshsim_check(root, work, out, stdout, seed):
    failures = []
    model, _ = formats.load_agent_model(work / PING3D_FILE)
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    if json.loads(stdout) != result:
        failures.append("stdout differs from result.json")
    text = (out / "trace.txt").read_text(encoding="utf-8")
    header, events = formats.parse_mesh_trace(text)
    if header.get("model") != result["model"] or header.get("seed") != str(seed):
        failures.append("trace header does not name the model hash and seed")
    if formats.mesh_trace_text(events, result["model"], seed) != text:
        failures.append("trace.txt does not round-trip through parse_mesh_trace")

    # Replay the trace.  Every placement posts pairs, and so does every
    # occupant of the final surface; all of them must stay in the model's
    # declared glue and message sets.
    mesh = Mesh(model.k, MESHSIM_SIZE)
    table = neighbor_table(mesh)
    occupancy: dict = {}
    last_round = 0
    bad_events = bad_payloads = 0
    for e in events:
        if (not mesh.contains(e.coordinates) or not last_round <= e.round <= MESHSIM_ROUNDS
                or occupancy.get(e.coordinates) != e.old
                or (e.new is not None and e.new not in model.types)):
            bad_events += 1
            continue
        last_round = e.round
        if e.new is None:
            del occupancy[e.coordinates]
        else:
            occupancy[e.coordinates] = e.new
            bad_payloads += _payload_failures(model, occupancy, table, e.coordinates)
    bad_payloads += sum(_payload_failures(model, occupancy, table, v) for v in occupancy)
    if bad_events:
        failures.append(f"{bad_events} trace events are inconsistent with the replay")
    if bad_payloads:
        failures.append(f"{bad_payloads} posted payloads leave the declared sets")
    if len(occupancy) != result["occupied"]:
        failures.append(f"replayed {len(occupancy)} occupants, result.json says "
                        f"{result['occupied']}")
    colors = {v: model.types[name].color for v, name in occupancy.items()}
    if formats.load_coloring(out / "coloring.json").assignment != colors:
        failures.append("replayed trace does not reproduce coloring.json")
    return failures


WORKLOADS = {
    "campaign": Workload(
        "campaign", _campaign_argv,
        CAMPAIGN_TRIALS * sum(n * n for n in CAMPAIGN_SIZES) * CAMPAIGN_ROUNDS,
        "cell_rounds_per_s", _campaign_check,
        bypassed=("engine.stages", "tiles.attachments.calls", "agents.model_step.calls",
                  "agents.message_rule.calls")),
    "assemble": Workload(
        "assemble", _assemble_argv, ASSEMBLE_SIZE ** 2, "stages_per_s", _assemble_check,
        bypassed=("rng.derive_seed.calls", "rng.derived_rng.calls",
                  "meshnet.construct.calls", "meshnet.run_round.calls",
                  "agents.law_sample.calls")),
    "fidelity": Workload(
        "fidelity", _fidelity_argv, FIDELITY_SAMPLES, "samples_per_s", _fidelity_check,
        bypassed=("engine.stages", "coloring.check.calls", "formats.bytes_written")),
    "meshsim-3d": Workload(
        "meshsim-3d", _meshsim_argv, MESHSIM_SIZE ** 3 * MESHSIM_ROUNDS,
        "cell_rounds_per_s", _meshsim_check,
        bypassed=("engine.stages", "agents.model_step.calls"), prepare=_ping3d_prepare),
}
