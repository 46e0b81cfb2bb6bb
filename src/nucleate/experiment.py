"""Experiment campaigns and the mesh-vs-model fidelity driver.

A campaign runs independent simulation trials per surface size and scores
each against the success predicate "after exactly t rounds the surface is
fully covered and weakly colored".  Solving later than the budget counts as
failure: the question under test is what a constant round budget can do as
the surface grows.  Reported uncertainty is a 95% Wilson interval.

A campaign's results are written to results.csv and results.json, and read
back, from one schema: `_RUN_KEYS` names the run-level keys of
results.json and `_SIZE_KEYS` the per-size columns of both files, with the
dataclass field each one holds.  A new per-size field is one `SizeOutcome`
field and one `_SIZE_KEYS` entry.

The fidelity driver compares, on a small mesh, the one-round outcome
distribution of the processor network against the one-step distribution of
the synchronous model dynamics, and both against the exact per-location
product law computed by direct enumeration.
"""

import csv
import io
import itertools
import json
from collections import Counter
from dataclasses import dataclass
from math import sqrt
from typing import Optional

from .agents import AgentModel, initial_state, message_rule, stepper
# perfbench/tracer.py wraps this module's model_step binding by name; the
# fidelity model samples step through `stepper`.
from .agents import model_step  # noqa: F401
from .coloring import check_weak_coloring
from .lattice import OPPOSITE, Mesh, add, directions
from .meshnet import MeshNetwork
# perfbench/tracer.py wraps this module's derive_seed and derived_rng
# bindings by name; the seeds come from seed_stream and no draw here builds
# a generator.
from .rng import derive_seed, derived_rng  # noqa: F401
from .rng import seed_stream


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% confidence interval for a binomial proportion (Wilson score)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 1.959963984540054  # the standard normal quantile of a two-sided 95% interval
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class ExperimentSpec:
    model: AgentModel
    sizes: tuple[int, ...]
    rounds: int
    trials: int
    master_seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if list(self.sizes) != sorted(self.sizes) or len(set(self.sizes)) != len(self.sizes):
            raise ValueError("sizes must be strictly ascending")
        if self.rounds < 0:
            raise ValueError("round budget must be nonnegative")


@dataclass(frozen=True)
class SizeOutcome:
    size: int
    trials: int
    successes: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    mean_rounds_to_valid: Optional[float] = None


@dataclass(frozen=True)
class ExperimentResult:
    model_hash: str
    master_seed: int
    rounds: int
    trials: int
    outcomes: tuple[SizeOutcome, ...]


def surface_success(net: MeshNetwork) -> bool:
    """Full coverage plus a valid weak coloring of the network's surface."""
    if len(net.states) != net.mesh.size:
        return False
    return check_weak_coloring(net.coloring()).valid


def _run_trial(model: AgentModel, size: int, seed: int,
               rounds: int) -> tuple[bool, Optional[int]]:
    net = MeshNetwork(model, size, master_seed=seed, record_trace=False)
    net.init_round0()
    valid = surface_success(net)
    first_valid = 0 if valid else None
    for r in range(1, rounds + 1):
        net.run_round()
        if first_valid is None:
            valid = surface_success(net)
            first_valid = r if valid else None
    if first_valid is not None and first_valid < rounds:
        valid = surface_success(net)  # rounds after the first valid one ran
    return valid, first_valid


def run_experiment(spec: ExperimentSpec, model_hash: str = "") -> ExperimentResult:
    """Run every (size, trial) campaign.  Each trial draws from its own
    stream, derive_seed(master seed, size, trial index) (`seed_stream`), so
    its outcome does not depend on the order in which trials are run."""
    outcomes = []
    for size in spec.sizes:
        results = [
            _run_trial(spec.model, size, seed, spec.rounds)
            for seed in itertools.islice(seed_stream(spec.master_seed, size), spec.trials)
        ]
        successes = sum(1 for ok, _ in results if ok)
        rounds_to_valid = [r for _, r in results if r is not None]
        lo, hi = wilson_interval(successes, spec.trials)
        outcomes.append(SizeOutcome(
            size=size,
            trials=spec.trials,
            successes=successes,
            p_hat=successes / spec.trials,
            ci_lo=lo,
            ci_hi=hi,
            mean_rounds_to_valid=(sum(rounds_to_valid) / len(rounds_to_valid)
                                  if rounds_to_valid else None),
        ))
    return ExperimentResult(model_hash, spec.master_seed, spec.rounds,
                            spec.trials, tuple(outcomes))


#: The results schema, run level: each key of results.json and the
#: ExperimentResult field it holds, in document order.
_RUN_KEYS = (("model", "model_hash"), ("seed", "master_seed"),
             ("rounds", "rounds"), ("trials", "trials"))
#: The results schema, per size: each column of results.csv and of a
#: results.json outcome, the SizeOutcome field it holds and its CSV type, in
#: column order.  A column whose type is None is written to results.json
#: only.
_SIZE_KEYS = (("n", "size", int), ("trials", "trials", int),
              ("successes", "successes", int), ("p_hat", "p_hat", float),
              ("ci_lo", "ci_lo", float), ("ci_hi", "ci_hi", float),
              ("mean_rounds_to_valid", "mean_rounds_to_valid", None))
CSV_COLUMNS = tuple(column for column, _, kind in _SIZE_KEYS if kind)


def experiment_csv(result: ExperimentResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([getattr(o, field) for _, field, kind in _SIZE_KEYS if kind]
                     for o in result.outcomes)
    return buf.getvalue()


def parse_experiment_csv(text: str) -> list[dict]:
    return [{column: kind(row[column]) for column, _, kind in _SIZE_KEYS if kind}
            for row in csv.DictReader(io.StringIO(text))]


def experiment_json(result: ExperimentResult) -> str:
    doc = {key: getattr(result, field) for key, field in _RUN_KEYS}
    doc["outcomes"] = [{column: getattr(o, field) for column, field, _ in _SIZE_KEYS}
                       for o in result.outcomes]
    return json.dumps(doc, indent=2) + "\n"


def load_experiment_json(text: str) -> ExperimentResult:
    doc = json.loads(text)
    outcomes = tuple(SizeOutcome(**{field: o[column] for column, field, _ in _SIZE_KEYS})
                     for o in doc["outcomes"])
    return ExperimentResult(**{field: doc[key] for key, field in _RUN_KEYS},
                            outcomes=outcomes)


# -- fidelity ----------------------------------------------------------

MAX_FIDELITY_SIDE = 3


def exact_round_law(model: AgentModel, side: int) -> dict:
    """Per-location next-occupant distributions after one round from the
    seed-only state, by direct enumeration of bond sums.

    This is an independent evaluation path: it recomputes candidate sets
    and kinetics arithmetic from the model definition rather than calling
    the shared transition-law object.  Locations with no occupied neighbor
    idle, mirroring the no-message branches of the round loop.  An
    occupant's detach intent reads the messages its seeded neighbors
    posted in round 0: each neighbor's rule hears silent inputs, with its
    index in sorted seed order as its id under use_ids.
    """
    if model.pi_nu != 0:
        raise ValueError("exact one-round law needs a deterministic start; set pi_nu = 0")
    mesh = Mesh(model.k, side)
    dirs = directions(model.k)
    kin = model.kinetics
    occupied = dict(model.seed)
    silent = (None,) * model.d
    seed_ids = {w: i for i, w in enumerate(sorted(occupied))} if model.use_ids else {}
    posted = {w: message_rule(model.types[name].rule)(name, silent, silent,
                                                      seed_ids.get(w)).messages
              for w, name in occupied.items() if model.types[name].rule is not None}
    law: dict = {}
    for v in mesh.vertices():
        facing = []
        heard = []
        has_neighbor = False
        for d in dirs:
            w = add(v, d.vector)
            occ = occupied.get(w) if mesh.contains(w) else None
            if occ is None:
                facing.append(None)
                heard.append(None)
            else:
                has_neighbor = True
                j = OPPOSITE[d.index]
                facing.append(model.types[occ].glues[j])
                heard.append(posted[w][j] if w in posted else None)
        current = occupied.get(v)
        if not has_neighbor:
            law[v] = {current: 1.0}
            continue
        if current is None:
            stable = []
            for name, t in model.types.items():
                total = sum(model.rules.bond(t.glues[i], g) for i, g in enumerate(facing))
                if total >= model.temperature:
                    stable.append(name)
            if not stable:
                law[v] = {None: 1.0}
                continue
            dist = {}
            attach = 0.0
            for name in model.types:
                p = kin.epsilon * kin.lambda_on / len(model.types)
                if name in stable:
                    p += (1 - kin.epsilon) * kin.lambda_on / len(stable)
                if p > 0:
                    dist[name] = p
                    attach += p
            if kin.lambda_on < 1:
                dist[None] = 1.0 - attach
            law[v] = dist
        else:
            t = model.types[current]
            total = sum(model.rules.bond(t.glues[i], g) for i, g in enumerate(facing))
            intent = False
            if t.rule is not None:
                intent = message_rule(t.rule)(current, tuple(facing), tuple(heard),
                                              None).detach
            # detachment at p_off = 0 never happens: the law stays forced
            if kin.detach and kin.p_off > 0 and (total < model.temperature or intent):
                law[v] = {current: 1.0 - kin.p_off, None: kin.p_off}
            else:
                law[v] = {current: 1.0}
    return law


def product_law(per_cell: dict) -> dict:
    """Joint distribution over surface outcomes from independent cells.

    Keys are frozensets of (location, agent type) pairs for occupied cells.
    """
    active = [(v, dist) for v, dist in sorted(per_cell.items()) if len(dist) > 1]
    fixed = frozenset(
        (v, next(iter(dist)))
        for v, dist in per_cell.items()
        if len(dist) == 1 and next(iter(dist)) is not None
    )
    joint: dict = {}
    choices = [sorted(dist.items(), key=lambda kv: (kv[0] is None, kv[0] or "")) for _, dist in active]
    for combo in itertools.product(*choices):
        p = 1.0
        placed = set(fixed)
        for (v, _), (occupant, prob) in zip(active, combo):
            p *= prob
            if occupant is not None:
                placed.add((v, occupant))
        key = frozenset(placed)
        joint[key] = joint.get(key, 0.0) + p
    return joint


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


@dataclass(frozen=True)
class FidelityReport:
    side: int
    samples: int
    tv_mesh_vs_model: float
    tv_mesh_vs_exact: float
    tv_model_vs_exact: float
    support_exact: int
    support_mesh: int
    support_model: int
    supports_equal: bool
    per_cell_law: dict


def run_fidelity(model: AgentModel, side: int, samples: int,
                 master_seed: int = 0) -> FidelityReport:
    """Sample both simulators for one round/step and compare distributions.

    The two sides draw from disjoint master seeds, derive_seed(master_seed,
    "mesh", i) and derive_seed(master_seed, "model", i) (`seed_stream`):
    with one seed they would agree sample for sample, and their distance
    would say nothing.  Every mesh sample builds and runs its own network.
    The model samples all step from one start state, so its step plan
    (`agents.stepper`) is built once and each sample only draws, picks and
    applies."""
    if side > MAX_FIDELITY_SIDE:
        raise ValueError(f"fidelity windows are capped at "
                         f"{MAX_FIDELITY_SIDE}x{MAX_FIDELITY_SIDE}; got {side}")
    per_cell = exact_round_law(model, side)
    exact = product_law(per_cell)

    mesh_counts = Counter()
    for seed in itertools.islice(seed_stream(master_seed, "mesh"), samples):
        net = MeshNetwork(model, side, master_seed=seed, record_trace=False)
        net.init_round0()
        net.run_round()
        mesh_counts[frozenset(net.states.items())] += 1

    step = stepper(initial_state(model, Mesh(model.k, side)), model)
    model_counts = Counter(
        frozenset(step(seed).occupancy.items())
        for seed in itertools.islice(seed_stream(master_seed, "model"), samples))

    mesh_emp = {k: c / samples for k, c in mesh_counts.items()}
    model_emp = {k: c / samples for k, c in model_counts.items()}
    exact_support = {k for k, p in exact.items() if p > 0}
    return FidelityReport(
        side=side,
        samples=samples,
        tv_mesh_vs_model=total_variation(mesh_emp, model_emp),
        tv_mesh_vs_exact=total_variation(mesh_emp, exact),
        tv_model_vs_exact=total_variation(model_emp, exact),
        support_exact=len(exact_support),
        support_mesh=len(mesh_emp),
        support_model=len(model_emp),
        supports_equal=set(mesh_emp) == exact_support == set(model_emp),
        per_cell_law=per_cell,
    )


def fidelity_document(report: FidelityReport) -> dict:
    return {
        "side": report.side,
        "samples": report.samples,
        "tv_mesh_vs_model": report.tv_mesh_vs_model,
        "tv_mesh_vs_exact": report.tv_mesh_vs_exact,
        "tv_model_vs_exact": report.tv_model_vs_exact,
        "support": {
            "exact": report.support_exact,
            "mesh": report.support_mesh,
            "model": report.support_model,
            "equal": report.supports_equal,
        },
        "per_cell_law": {
            ",".join(str(c) for c in v): {name or "EMPTY": p for name, p in dist.items()}
            for v, dist in sorted(report.per_cell_law.items())
        },
    }
