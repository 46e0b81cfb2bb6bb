"""Command-line harness.

Subcommands: assemble (tile dynamics), meshsim (processor-network
simulation), experiment (success-probability campaigns), fidelity
(mesh-vs-model distribution comparison), check (weak-coloring reports),
lint-model (schema and validity diagnostics).

Exit codes: 0 success, 1 a requested property check failed, 2 usage or
validation error.  Every artifact embeds the master seed and the model's
content hash, which reproduce the run byte for byte.
"""

import argparse
import json
import sys
from pathlib import Path

from . import coloring as col
from . import engine, formats
from .experiment import (
    ExperimentSpec,
    experiment_csv,
    experiment_json,
    fidelity_document,
    run_experiment,
    run_fidelity,
)
from .lattice import Mesh
from .meshnet import MeshNetwork
from .systems import NUCLEATION_RULE_IDS, nucleation_family

OK, CHECK_FAILED, USAGE = 0, 1, 2


def _at_least(low: int, kind: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{kind} must be >= {low}, got {value}")
        return value
    return parse


def _sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive integers")
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise argparse.ArgumentTypeError("sizes must be strictly ascending")
    return sizes


def _write(out_dir, name: str, text: str) -> None:
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / name).write_text(text, encoding="utf-8")


def _print_diagnostics(diagnostics) -> None:
    for d in diagnostics:
        print(f"{d.severity}: [{d.code}] {d.message}", file=sys.stderr)


def _check_ppm(args, k: int) -> None:
    """Reject --ppm without --out, or on a 3-dimensional surface, before
    any work is done."""
    if args.ppm and args.out is None:
        raise ValueError("--ppm needs --out")
    if args.ppm and k != 2:
        raise ValueError("pixmap snapshots are 2-dimensional only")


def _surface_report(coloring: col.Coloring, mode: str = col.FULL):
    """(weak-coloring check, its report document); the plus search runs on
    2-dimensional meshes only."""
    check = col.check_weak_coloring(coloring, mode=mode)
    plus = col.find_monochromatic_plus(coloring) if coloring.mesh.k == 2 else None
    return check, col.report_document(check, plus)


def _emit(doc: dict, args, ascii_text: str = "") -> None:
    if args.format == "ascii" and ascii_text:
        print(ascii_text, end="")
    else:
        print(json.dumps(doc, indent=2))


def cmd_assemble(args) -> int:
    if args.expect_valid and not args.check_coloring:
        raise ValueError("--expect-valid needs --check-coloring")
    system, doc = formats.load_tile_system(args.model)
    _check_ppm(args, system.k)
    _print_diagnostics(formats.tile_system_warnings(system))
    model_hash = formats.content_hash(doc)
    window = Mesh(system.k, args.size)
    result = engine.run(system, window, master_seed=args.seed,
                        max_stages=args.max_stages)
    colors = {v: system.tiles[name].color for v, name in result.configuration.items()}
    snapshot = formats.ascii_snapshot(colors, window)
    trace = formats.assembly_trace_text(result.sequence, model_hash, args.seed)

    report = {
        "command": "assemble",
        "model": model_hash,
        "seed": args.seed,
        "size": args.size,
        "temperature": system.temperature,
        "terminal": result.terminal,
        "stages": result.stages,
        "tiles": len(result.configuration),
    }
    _write(args.out, "trace.txt", trace)
    _write(args.out, "snapshot.txt", snapshot)
    if args.ppm:
        formats.write_ppm(Path(args.out) / "snapshot.ppm", colors, window)

    failed = False
    if args.check_coloring:
        check, report["coloring"] = _surface_report(col.Coloring(colors, window, system.colors))
        _write(args.out, "coloring.json", json.dumps(
            formats.coloring_document(colors, window, system.colors), indent=2))
        _write(args.out, "coloring_report.json", json.dumps(report["coloring"], indent=2))
        if args.expect_valid and not check.valid:
            failed = True
    if args.check_determinism:
        verdict = engine.check_local_determinism(result.sequence)
        report["determinism"] = {
            "passed": verdict.passed,
            "failed_condition": verdict.failed_condition,
            "witness": repr(verdict.witness) if verdict.witness else None,
            "message": verdict.message,
        }
        _write(args.out, "determinism.json", json.dumps(report["determinism"], indent=2))
        if not verdict.passed:
            failed = True

    _write(args.out, "result.json", json.dumps(report, indent=2))
    _emit(report, args, snapshot)
    return CHECK_FAILED if failed else OK


def cmd_meshsim(args) -> int:
    model, doc = formats.load_agent_model(args.model)
    _check_ppm(args, model.k)
    model_hash = formats.content_hash(doc)
    net = MeshNetwork(model, args.size, master_seed=args.seed)
    net.init_round0()
    events = net.run(args.rounds)
    coloring = net.coloring()
    check, coloring_report = _surface_report(coloring)

    colors = coloring.assignment
    snapshot = formats.ascii_snapshot(colors, net.mesh)
    trace = formats.mesh_trace_text(events, model_hash, args.seed)
    report = {
        "command": "meshsim",
        "model": model_hash,
        "seed": args.seed,
        "size": args.size,
        "rounds": args.rounds,
        "occupied": len(net.states),
        "coloring": coloring_report,
    }
    _write(args.out, "trace.txt", trace)
    _write(args.out, "snapshot.txt", snapshot)
    _write(args.out, "coloring.json", json.dumps(
        formats.coloring_document(colors, net.mesh, model.colors), indent=2))
    _write(args.out, "result.json", json.dumps(report, indent=2))
    if args.ppm:
        formats.write_ppm(Path(args.out) / "snapshot.ppm", colors, net.mesh)
    _emit(report, args, snapshot)
    if args.expect_valid and not check.valid:
        return CHECK_FAILED
    return OK


def cmd_experiment(args) -> int:
    if args.model is not None:
        for flag, value in (("--rule", args.rule), ("--pi-nu", args.pi_nu)):
            if value is not None:
                raise ValueError(f"{flag} applies only without --model")
        model, doc = formats.load_agent_model(args.model)
        model_hash = formats.content_hash(doc)
    else:
        named = nucleation_family(0.1 if args.pi_nu is None else args.pi_nu,
                                  args.rule or "checkerboard-local")
        model = named.system
        model_hash = formats.content_hash(formats.agent_model_document(
            model, named.identifier))
    spec = ExperimentSpec(
        model=model,
        sizes=args.sizes,
        rounds=args.rounds,
        trials=args.trials,
        master_seed=args.seed,
    )
    result = run_experiment(spec, model_hash)
    csv_text = experiment_csv(result)
    json_text = experiment_json(result)
    _write(args.out, "results.csv", csv_text)
    _write(args.out, "results.json", json_text)
    if args.format == "csv":
        print(csv_text, end="")
    else:
        print(json_text, end="")
    return OK


def cmd_fidelity(args) -> int:
    model, doc = formats.load_agent_model(args.model)
    report = run_fidelity(model, args.size, args.samples, master_seed=args.seed)
    doc_out = {
        "command": "fidelity",
        "model": formats.content_hash(doc),
        "seed": args.seed,
    } | fidelity_document(report)
    _write(args.out, "fidelity.json", json.dumps(doc_out, indent=2))
    print(json.dumps(doc_out, indent=2))
    return OK


def cmd_check(args) -> int:
    check, doc = _surface_report(formats.load_coloring(args.coloring), args.mode)
    _write(args.out, "coloring_report.json", json.dumps(doc, indent=2))
    print(json.dumps(doc, indent=2))
    if args.expect_valid and not check.valid:
        return CHECK_FAILED
    return OK


def cmd_lint_model(args) -> int:
    diagnostics = formats.lint_document(args.model, strict=args.strict)
    doc = {"model": str(args.model), "diagnostics": [d.as_dict() for d in diagnostics]}
    print(json.dumps(doc, indent=2))
    return CHECK_FAILED if diagnostics else OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nucleate",
        description="Self-assembly workbench: tile dynamics, nucleating agent "
                    "models, mesh-network simulation, weak-coloring checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, fmt=("ascii", "json")):
        if model:
            p.add_argument("--model", required=True, help="model definition file (JSON)")
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        p.add_argument("--out", default=None, help="directory for output artifacts")
        p.add_argument("--format", choices=fmt, default=fmt[0])

    p = sub.add_parser("assemble", help="run tile assembly on an n x n window")
    common(p)
    p.add_argument("--size", type=_at_least(1, "size"), required=True)
    p.add_argument("--max-stages", type=_at_least(0, "max-stages"), default=None)
    p.add_argument("--check-coloring", action="store_true")
    p.add_argument("--check-determinism", action="store_true")
    p.add_argument("--expect-valid", action="store_true",
                   help="exit 1 on an invalid coloring; needs --check-coloring")
    p.add_argument("--ppm", action="store_true", help="also write a pixmap snapshot")
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("meshsim", help="simulate the processor mesh for some rounds")
    common(p)
    p.add_argument("--size", type=_at_least(1, "size"), required=True)
    p.add_argument("--rounds", type=_at_least(0, "rounds"), default=10)
    p.add_argument("--expect-valid", action="store_true")
    p.add_argument("--ppm", action="store_true")
    p.set_defaults(func=cmd_meshsim)

    p = sub.add_parser("experiment", help="success-probability campaign across sizes")
    common(p, model=False, fmt=("csv", "json"))
    p.add_argument("--model", default=None, help="agent model file (JSON)")
    p.add_argument("--rule", choices=NUCLEATION_RULE_IDS, default=None,
                   help="shipped rule family, without --model (default checkerboard-local)")
    p.add_argument("--pi-nu", type=float, default=None,
                   help="its nucleation probability, without --model (default 0.1)")
    p.add_argument("--sizes", type=_sizes, default=(8, 16, 32, 64))
    p.add_argument("--rounds", type=_at_least(0, "rounds"), default=10)
    p.add_argument("--trials", type=_at_least(1, "trials"), default=200)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("fidelity", help="mesh-vs-model one-round distribution check")
    common(p, fmt=("json",))
    p.add_argument("--size", type=_at_least(1, "size"), required=True)
    p.add_argument("--samples", type=_at_least(1, "samples"), default=100_000)
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("check", help="weak c-coloring report for a coloring file")
    p.add_argument("--coloring", required=True, help="coloring JSON file")
    p.add_argument("--mode", choices=(col.FULL, col.INDUCED), default=col.FULL)
    p.add_argument("--expect-valid", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lint-model", help="validate a model file, emit diagnostics")
    p.add_argument("--model", required=True)
    p.add_argument("--strict", action="store_true",
                   help="also warn about negative binding strengths")
    p.set_defaults(func=cmd_lint_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except formats.FormatError as e:
        _print_diagnostics(e.diagnostics)
        return USAGE
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
