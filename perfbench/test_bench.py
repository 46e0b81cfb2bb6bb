"""Tests of the benchmark itself: span arithmetic, wrapper restoration, the
generated meshsim-3d model, the output checks and BENCHMARK.json.

    python3 -m pytest perfbench
"""

import contextlib
import importlib
import io
import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from nucleate import cli, formats  # noqa: E402


def _spans(t: tracing.Tracer, rows):
    for name, start, end, parent in rows:
        t.name.append(t.name_id(name))
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)


def test_self_time_subtracts_direct_children_only():
    t = tracing.Tracer()
    _spans(t, [
        ("a.outer", 0, 100, tracing.ROOT),
        ("b.inner", 10, 30, 0),
        ("b.inner", 40, 90, 0),
        ("b.leaf", 50, 60, 2),
    ])
    assert t.self_ns() == [30, 20, 40, 10]
    summary = t.summary()
    assert summary["a.outer"] == {"calls": 1, "self_s": 30e-9, "top_calls": 1}
    assert summary["b.inner"]["calls"] == 2
    assert abs(summary["b.inner"]["self_s"] - 60e-9) < 1e-15
    assert summary["b.inner"]["top_calls"] == 2  # called from layer a
    assert summary["b.leaf"]["top_calls"] == 0  # called from its own layer


def test_spans_nest_and_survive_exceptions():
    t = tracing.Tracer()

    def boom():
        raise ValueError("x")

    inner = t.span("m.inner", lambda: None)
    failing = t.span("m.boom", boom)
    outer = t.span("m.outer", lambda: (inner(), inner()))
    outer()
    try:
        failing()
    except ValueError:
        pass
    inner()
    names = [t.names[i] for i in t.name]
    assert names == ["m.outer", "m.inner", "m.inner", "m.boom", "m.inner"]
    assert list(t.parent) == [tracing.ROOT, 0, 0, tracing.ROOT, tracing.ROOT]
    assert all(e >= s for s, e in zip(t.start, t.end))
    assert all(own >= 0 for own in t.self_ns())


def test_patch_restores_originals_and_notes_missing_bindings():
    module = types.ModuleType("fake")
    module.f = lambda x: x + 1

    class Thing:
        def method(self):
            return 7

    originals = (module.f, Thing.__dict__["method"])
    t = tracing.Tracer()
    t.patch(module, "f", lambda fn: t.counter("fake.f", fn))
    t.patch(Thing, "method", lambda fn: t.span("fake.method", fn))
    t.patch(module, "gone", lambda fn: fn)
    assert module.f(1) == 2 and Thing().method() == 7
    assert t.counts["fake.f"] == 1 and len(t.name) == 1
    assert t.missing == ["fake.gone"]
    t.restore()
    assert (module.f, Thing.__dict__["method"]) == originals
    assert not hasattr(module, "gone")


def _bindings():
    out = {}
    for mod, attr, _ in tracing.SPANS + tracing.COUNTERS:
        out[(mod, attr)] = vars(importlib.import_module(mod))[attr]
    for mod in tracing.RULE_LOOKUPS:
        out[(mod, "message_rule")] = vars(importlib.import_module(mod))["message_rule"]
    for mod, cls, attr in (("nucleate.agents", "TransitionLaw", "sample"),
                           ("nucleate.agents", "TransitionLaw", "forced"),
                           ("nucleate.meshnet", "MeshNetwork", "__init__"),
                           ("nucleate.meshnet", "MeshNetwork", "run_round"),
                           ("nucleate.engine", "run", None),
                           ("nucleate.cli", "_write", None)):
        owner = vars(importlib.import_module(mod))[cls]
        out[(mod, cls, attr)] = vars(owner)[attr] if attr else owner
    return out


def test_install_wraps_every_binding_and_restore_undoes_it():
    before = _bindings()
    t = tracing.Tracer()
    tracing.install(t)
    try:
        during = _bindings()
        assert t.missing == []
        assert all(during[key] is not before[key] for key in before)
    finally:
        t.restore()
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def _meshsim(out: Path, model: Path) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["meshsim", "--model", str(model), "--size", "4", "--rounds", "3",
                         "--seed", "5", "--out", str(out), "--format", "json"])
    assert code == 0
    return buf.getvalue(), (out / "trace.txt").read_text()


def test_traced_call_matches_untraced_and_counts_its_layers(tmp_path):
    workloads._ping3d_prepare(tmp_path)
    model = tmp_path / workloads.PING3D_FILE
    plain = _meshsim(tmp_path / "plain", model)
    t = tracing.Tracer()
    tracing.install(t)
    try:
        traced = _meshsim(tmp_path / "traced", model)
    finally:
        t.restore()
    assert traced == plain
    layers = tracing.layer_metrics(t)
    _, events = formats.parse_mesh_trace(plain[1])
    assert layers["meshnet.construct.calls"] == 1
    assert layers["meshnet.run_round.calls"] == 3
    assert layers["meshnet.changes"] == sum(1 for e in events if e.round >= 1)
    assert layers["meshnet.targets"] >= layers["meshnet.changes"]
    assert layers["engine.stages"] == 0 and layers["cli.self_s"] > 0
    assert layers["formats.bytes_written"] == sum(
        p.stat().st_size for p in (tmp_path / "traced").iterdir())


def test_generated_meshsim_model_loads_through_formats(tmp_path):
    workloads._ping3d_prepare(tmp_path)
    model, doc = formats.load_agent_model(tmp_path / workloads.PING3D_FILE)
    assert doc == workloads.ping3d_document()
    assert (model.k, model.d, model.temperature, model.pi_nu) == (3, 6, 2, 0.05)
    assert sorted(t.rule for t in model.types.values()) == ["ping", "ping"]
    assert all(t.glues == ("g",) * 6 for t in model.types.values())
    assert model.rules.bond("g", "g") == 1
    kin = model.kinetics
    assert (kin.lambda_on, kin.p_off, kin.epsilon, kin.detach) == (0.5, 0.2, 0.1, True)


def test_campaign_check_rejects_p_hat_rising_with_n(tmp_path):
    argv = workloads._campaign_argv(ROOT, tmp_path, tmp_path, 3)
    argv[argv.index("--trials") + 1] = "2"
    argv[argv.index("--sizes") + 1] = "4,8"
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        assert cli.main(argv) == 0
    stdout = buf.getvalue()
    lines = stdout.splitlines()
    # n=4 solved in 0 of 2 trials, n=8 in 2 of 2
    lines[1] = "4,2,0,0.0,0.0,0.8"
    lines[2] = "8,2,2,1.0,0.2,1.0"
    forged = "\n".join(lines) + "\n"
    (tmp_path / "results.csv").write_text(forged)
    failures = workloads._campaign_check(ROOT, tmp_path, tmp_path, forged, 3)
    assert any("p_hat increases" in f for f in failures)
    assert any("parse back equal" in f for f in failures)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = list(tracing.layer_metrics(tracing.Tracer())) + ["trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layer_names}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS.values():
        assert set(workload.bypassed) <= set(layer_names)
