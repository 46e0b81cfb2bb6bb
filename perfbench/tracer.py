"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces public functions of the ``nucleate`` modules at the
name their caller binds (``nucleate.meshnet.derived_rng``,
``nucleate.engine.glues_bind``, ...) with wrappers, so no program file
changes.  A span is one call: name, start, end and the span that was open
when it began (its parent).  Spans are kept in parallel integer arrays and
written out once, at the end of the process.  One-line helpers called
millions of times per pass (``lattice.add``, ``tiles.glues_bind``) get a
call counter instead of a span, because a span would cost more than the
call it measures.

A span's self time is its duration minus the durations of its direct
children; the time of counted-only helpers therefore lands in the self
time of the span that called them.  Every layer runs on the one thread
and nothing queues between layers, so no wait time is recorded.
"""

import importlib
import json
import time
from array import array

ROOT = -1


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [ROOT]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers -------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn so each call records a span named `name`.

        `before(args)` runs ahead of the span and its return value is passed
        to `after(token, args, result)`, which runs once the span has
        closed; both stay outside the span's own interval.
        """
        nid = self.name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(token, args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        """Wrap fn so each call only increments counts[name]."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr (a module global or class attribute) with
        make_wrapper(original); a binding that no longer exists is noted in
        `missing` and skipped."""
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per-span self time: duration minus the direct children's durations."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent != ROOT:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def summary(self) -> dict:
        """name -> {"calls", "self_s", "top_calls"}; top_calls counts spans
        whose parent belongs to another layer (the part of the name before
        the first dot)."""
        out = {name: {"calls": 0, "self_s": 0.0, "top_calls": 0} for name in self.names}
        layer = [name.split(".", 1)[0] for name in self.names]
        for idx, own in enumerate(self.self_ns()):
            entry = out[self.names[self.name[idx]]]
            entry["calls"] += 1
            entry["self_s"] += own / 1e9
            parent = self.parent[idx]
            if parent == ROOT or layer[self.name[parent]] != layer[self.name[idx]]:
                entry["top_calls"] += 1
        return out

    def write(self, path) -> None:
        """Dump every span (ns since the first span started) as JSON."""
        base = self.start[0] if len(self.start) else 0
        doc = {
            "names": self.names,
            "name": list(self.name),
            "start_ns": [s - base for s in self.start],
            "end_ns": [e - base for e in self.end],
            "parent": list(self.parent),
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- the nucleate bindings ------------------------------------------------

#: (module, attribute, span name): every binding through which a caller
#: reaches the function, so each call is seen once whatever the caller.
SPANS = (
    ("nucleate.rng", "derive_seed", "rng.derive_seed"),
    ("nucleate.meshnet", "derive_seed", "rng.derive_seed"),
    ("nucleate.experiment", "derive_seed", "rng.derive_seed"),
    ("nucleate.agents", "derive_seed", "rng.derive_seed"),
    ("nucleate.meshnet", "derived_rng", "rng.derived_rng"),
    ("nucleate.experiment", "derived_rng", "rng.derived_rng"),
    ("nucleate.experiment", "model_step", "agents.model_step"),
    ("nucleate.engine", "check_local_determinism", "engine.determinism"),
    ("nucleate.engine", "attachments", "tiles.attachments"),
    ("nucleate.coloring", "check_weak_coloring", "coloring.check"),
    ("nucleate.experiment", "check_weak_coloring", "coloring.check"),
    ("nucleate.coloring", "find_monochromatic_plus", "coloring.plus"),
    ("nucleate.cli", "run_experiment", "experiment.run_experiment"),
    ("nucleate.cli", "run_fidelity", "experiment.run_fidelity"),
    ("nucleate.experiment", "exact_round_law", "experiment.exact_round_law"),
    ("nucleate.experiment", "product_law", "experiment.product_law"),
    ("nucleate.formats", "load_tile_system", "formats.load"),
    ("nucleate.formats", "load_agent_model", "formats.load"),
    ("nucleate.formats", "assembly_trace_text", "formats.write"),
    ("nucleate.formats", "mesh_trace_text", "formats.write"),
    ("nucleate.formats", "ascii_snapshot", "formats.write"),
    ("nucleate.formats", "coloring_document", "formats.write"),
    ("nucleate.cli", "experiment_csv", "formats.write"),
    ("nucleate.cli", "experiment_json", "formats.write"),
    ("nucleate.cli", "fidelity_document", "formats.write"),
    ("nucleate.cli", "main", "cli"),
)

#: (module, attribute, counter name) for helpers too hot for a span.
COUNTERS = (
    ("nucleate.engine", "glues_bind", "tiles.glues_bind"),
    ("nucleate.tiles", "glues_bind", "tiles.glues_bind"),
    ("nucleate.lattice", "add", "lattice.add"),
    ("nucleate.tiles", "add", "lattice.add"),
    ("nucleate.engine", "add", "lattice.add"),
    ("nucleate.agents", "add", "lattice.add"),
    ("nucleate.experiment", "add", "lattice.add"),
)

#: Modules whose message_rule lookup hands out the registered rules.
RULE_LOOKUPS = ("nucleate.meshnet", "nucleate.agents", "nucleate.experiment")

#: Counts that must repeat exactly between two traced passes of one seed.
EXACT_COUNTS = (
    "rng.derive_seed.calls", "rng.derived_rng.calls", "agents.law_sample.calls",
    "agents.model_step.calls", "agents.message_rule.calls",
    "meshnet.construct.calls", "meshnet.run_round.calls", "meshnet.targets",
    "meshnet.changes", "engine.stages", "tiles.glues_bind.calls",
    "tiles.attachments.calls", "lattice.add.calls", "coloring.check.calls",
    "formats.bytes_written",
)


def install(tracer: Tracer) -> None:
    """Wrap every nucleate binding listed above, plus the methods of
    TransitionLaw and MeshNetwork and the cli's artifact writer."""
    module = importlib.import_module
    for mod, attr, name in SPANS:
        tracer.patch(module(mod), attr, lambda fn, name=name: tracer.span(name, fn))
    for mod, attr, name in COUNTERS:
        tracer.patch(module(mod), attr, lambda fn, name=name: tracer.counter(name, fn))

    def after_engine_run(_, args, result):
        tracer.count("engine.stages", result.stages)

    tracer.patch(module("nucleate.engine"), "run",
                 lambda fn: tracer.span("engine.run", fn, after=after_engine_run))

    def after_forced(_, args, result):
        tracer.count("agents.forced", int(result))

    law = module("nucleate.agents").TransitionLaw
    tracer.patch(law, "sample", lambda fn: tracer.span("agents.law_sample", fn))
    tracer.patch(law, "forced",
                 lambda fn: tracer.span("agents.law_forced", fn, after=after_forced))

    def before_round(args):
        return dict(args[0].states)

    def after_round(before, args, _):
        net = args[0]
        tracer.count("meshnet.targets", len(net.inputs))
        after = net.states
        tracer.count("meshnet.changes", sum(
            1 for v in before.keys() | after.keys() if before.get(v) != after.get(v)))

    net = module("nucleate.meshnet").MeshNetwork
    tracer.patch(net, "__init__", lambda fn: tracer.span("meshnet.construct", fn))
    tracer.patch(net, "init_round0", lambda fn: tracer.span("meshnet.init_round0", fn))
    tracer.patch(net, "run_round", lambda fn: tracer.span(
        "meshnet.run_round", fn, before=before_round, after=after_round))

    traced_rules: dict = {}

    def traced_lookup(lookup):
        def message_rule(rule_name):
            rule = lookup(rule_name)
            wrapped = traced_rules.get(rule)
            if wrapped is None:
                wrapped = traced_rules[rule] = tracer.span("agents.message_rule", rule)
            return wrapped
        return message_rule

    for mod in RULE_LOOKUPS:
        tracer.patch(module(mod), "message_rule", traced_lookup)

    def before_write(args):
        out_dir, _, text = args
        return len(text.encode("utf-8")) if out_dir is not None else 0

    def after_write(size, args, _):
        tracer.count("formats.bytes_written", size)

    tracer.patch(module("nucleate.cli"), "_write", lambda fn: tracer.span(
        "formats.write", fn, before=before_write, after=after_write))


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer figures of one traced pass, by benchmark metric name."""
    spans = tracer.summary()
    counts = tracer.counts
    nil = {"calls": 0, "self_s": 0.0, "top_calls": 0}

    def calls(name):
        return spans.get(name, nil)["calls"]

    def self_s(*names):
        return sum(spans.get(name, nil)["self_s"] for name in names)

    def ratio(num, den):
        return num / den if den else 0.0

    rng_names = ("rng.derive_seed", "rng.derived_rng")
    rng_self = self_s(*rng_names)
    rng_top = sum(spans.get(name, nil)["top_calls"] for name in rng_names)
    stages = counts.get("engine.stages", 0)
    targets = counts.get("meshnet.targets", 0)
    changes = counts.get("meshnet.changes", 0)
    return {
        "rng.derive_seed.calls": calls("rng.derive_seed"),
        "rng.derived_rng.calls": calls("rng.derived_rng"),
        "rng.self_s": rng_self,
        "rng.us_per_call": ratio(rng_self * 1e6, rng_top),
        "agents.law.self_s": self_s("agents.law_sample", "agents.law_forced"),
        "agents.law_sample.calls": calls("agents.law_sample"),
        "agents.forced_ratio": ratio(counts.get("agents.forced", 0), calls("agents.law_forced")),
        "agents.model_step.calls": calls("agents.model_step"),
        "agents.model_step.self_s": self_s("agents.model_step"),
        "agents.message_rule.calls": calls("agents.message_rule"),
        "agents.message_rule.self_s": self_s("agents.message_rule"),
        "meshnet.construct.calls": calls("meshnet.construct"),
        "meshnet.construct.self_s": self_s("meshnet.construct"),
        "meshnet.init_round0.self_s": self_s("meshnet.init_round0"),
        "meshnet.run_round.calls": calls("meshnet.run_round"),
        "meshnet.run_round.self_s": self_s("meshnet.run_round"),
        "meshnet.targets": targets,
        "meshnet.changes": changes,
        "meshnet.useful_ratio": ratio(changes, targets),
        "engine.run.self_s": self_s("engine.run"),
        "engine.stages": stages,
        "engine.us_per_stage": ratio(self_s("engine.run") * 1e6, stages),
        "engine.determinism.self_s": self_s("engine.determinism"),
        "tiles.glues_bind.calls": counts.get("tiles.glues_bind", 0),
        "tiles.attachments.calls": calls("tiles.attachments"),
        "lattice.add.calls": counts.get("lattice.add", 0),
        "coloring.check.calls": calls("coloring.check"),
        "coloring.check.self_s": self_s("coloring.check"),
        "coloring.plus.self_s": self_s("coloring.plus"),
        "experiment.run_experiment.self_s": self_s("experiment.run_experiment"),
        "experiment.exact_round_law.self_s": self_s("experiment.exact_round_law"),
        "experiment.product_law.self_s": self_s("experiment.product_law"),
        "experiment.run_fidelity.self_s": self_s("experiment.run_fidelity"),
        "formats.load.self_s": self_s("formats.load"),
        "formats.write.self_s": self_s("formats.write"),
        "formats.bytes_written": counts.get("formats.bytes_written", 0),
        "cli.self_s": self_s("cli"),
    }
