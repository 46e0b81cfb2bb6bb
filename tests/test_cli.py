import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import nucleate
import support  # noqa: F401  registers the relay rule the pinned relay model runs
from nucleate.cli import main
from nucleate.formats import (
    agent_model_document,
    content_hash,
    parse_mesh_trace,
    tile_system_document,
)
from nucleate.experiment import parse_experiment_csv
from nucleate.systems import nucleation_family, shipped_model_path
from nucleate.tiles import Configuration, TileAssemblySystem, tile

TSTAR = str(shipped_model_path("tstar"))
FIDELITY = str(shipped_model_path("fidelity2"))
LOCAL = str(shipped_model_path("checkerboard_local"))


def test_cli_loads_only_the_standard_library():
    # modules the interpreter's own start-up (site, .pth hooks) loaded are
    # not the package's doing, so only those the import adds are checked
    probe = ("import sys; before = set(sys.modules); import nucleate.cli; "
             "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(Path(nucleate.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    tops = {name.partition(".")[0] for name in out.split()}
    assert "nucleate" in tops
    assert sorted(tops - {"nucleate"} - sys.stdlib_module_names) == []


def test_public_names_resolve():
    assert [name for name in nucleate.__all__ if not hasattr(nucleate, name)] == []


def test_assemble_end_to_end(tmp_path, capsys):
    code = main(["assemble", "--model", TSTAR, "--size", "8", "--seed", "1",
                 "--check-coloring", "--check-determinism", "--expect-valid",
                 "--out", str(tmp_path), "--format", "json", "--ppm"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["terminal"] and report["stages"] == 64
    assert report["coloring"]["valid"]
    assert report["coloring"]["plus_centers"] == []
    assert report["determinism"]["passed"]
    for name in ("trace.txt", "snapshot.txt", "result.json", "coloring.json",
                 "coloring_report.json", "determinism.json", "snapshot.ppm"):
        assert (tmp_path / name).exists(), name
    snapshot = (tmp_path / "snapshot.txt").read_text()
    assert snapshot.splitlines()[-1].startswith("12121212")


#: sha256 of trace.txt per seed and of determinism.json (the same passing
#: report for every seed) from `assemble` on tstar 32x32, as the engine wrote
#: them before its pair list became incremental; existing seeds must keep
#: their bytes.
ASSEMBLE_32_TRACES = {
    0: "47988f9f719bbecc6331d95a683ef18b4b821e9152ac2a12cb88b0488bd2c3f1",
    1: "2578d3a964dce62cd481ad9e19654129394ea66bb8cbf64cc7653dc9a5d2cc5d",
    2: "d0f4f96cf07802c4235cc82dd9713cf7125a42469c87bc53486c9fd8d4687257",
}
ASSEMBLE_32_DETERMINISM = "8411a6807bef3be6c061cfab7397c4648b385e2448c3b22be732b78a03778053"
#: sha256 of the artifacts that depend only on the terminal assembly, which
#: tstar makes the same for every seed; taken before attachability was keyed
#: by neighbour names.
ASSEMBLE_32_TERMINAL = {
    "coloring.json": "913eba06994b157014061735be9282d077f32e934d608621bf9269d3f20bc8ca",
    "coloring_report.json": "d0316deaf042b48174bfa9e5181e20ba89826776e569c28fea13befc763e6998",
    "snapshot.txt": "7a565ced0672ee9442f63a7ad703cb8dcb43894459df19898ea8f0888c4a3612",
}


@pytest.mark.parametrize("seed", sorted(ASSEMBLE_32_TRACES))
def test_assemble_bytes_are_pinned(tmp_path, capsys, seed):
    code = main(["assemble", "--model", TSTAR, "--size", "32", "--seed", str(seed),
                 "--check-coloring", "--check-determinism", "--expect-valid",
                 "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0

    def digest(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert digest("trace.txt") == ASSEMBLE_32_TRACES[seed]
    assert digest("determinism.json") == ASSEMBLE_32_DETERMINISM
    assert {name: digest(name) for name in ASSEMBLE_32_TERMINAL} == ASSEMBLE_32_TERMINAL


#: sha256 of determinism.json from `assemble` at seed 0 on a 2x2 window of a
#: seed offering one strength-2 east glue that two types share: condition 2
#: fails at (1, 0), and the file pins the witness text.
SHARED_GLUE_DETERMINISM = "9de099ecf03c9c97bac8e970b3ad1e8c45bf00c4dabd5f66d7c4d822eca6983a"


def test_failing_determinism_report_is_pinned(tmp_path, capsys):
    e = ("", 0)
    tiles = {"seed": tile("seed", 1, e, e, ("g", 2), e)}
    for name in ("t0", "t1"):
        tiles[name] = tile(name, 2, ("g", 2), e, e, e)
    system = TileAssemblySystem(tiles, Configuration({(0, 0): "seed"}), 2)
    model = tmp_path / "shared.json"
    model.write_text(json.dumps(tile_system_document(system)))
    code = main(["assemble", "--model", str(model), "--size", "2", "--seed", "0",
                 "--check-determinism", "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 1
    assert _sha256(tmp_path / "out" / "determinism.json") == SHARED_GLUE_DETERMINISM


def test_assemble_missing_file(capsys):
    assert main(["assemble", "--model", "/nonexistent/m.json", "--size", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: [Errno 2] No such file or directory: '/nonexistent/m.json'\n")


def test_assemble_size_zero_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["assemble", "--model", TSTAR, "--size", "0"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", [
    ["meshsim", "--model", LOCAL, "--size", "4", "--rounds", "-3"],
    ["assemble", "--model", TSTAR, "--size", "4", "--max-stages", "-2"],
    ["experiment", "--sizes", "8", "--trials", "1", "--rounds", "-1"],
])
def test_negative_budgets_are_usage_errors(tmp_path, capsys, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([*command, "--out", str(out)])
    assert err.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sizes", ["16,8", "8,8"])
def test_sizes_out_of_order_are_usage_errors(tmp_path, capsys, sizes):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--sizes", sizes, "--trials", "1", "--out", str(out)])
    assert err.value.code == 2
    assert "argument --sizes: sizes must be strictly ascending" in capsys.readouterr().err
    assert not out.exists()


def _tile_cube_document() -> dict:
    """A 3-dimensional tile system: one tile type with glue g on every side."""
    t = tile("t", 1, *[("g", 1)] * 6)
    return tile_system_document(TileAssemblySystem({"t": t}, Configuration({(0, 0, 0): "t"}), 1))


@pytest.mark.parametrize("command", ["assemble", "meshsim"])
def test_ppm_on_a_3d_surface_is_rejected_before_any_work(tmp_path, capsys, command):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(PING3D if command == "meshsim" else _tile_cube_document()))
    out = tmp_path / "out"
    assert main([command, "--model", str(path), "--size", "3", "--ppm", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: pixmap snapshots are 2-dimensional only\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["assemble", "meshsim"])
def test_ppm_without_out_is_a_usage_error(tmp_path, capsys, command):
    # a pixmap has nowhere to go without --out; it is refused, not dropped
    model = FIDELITY if command == "meshsim" else TSTAR
    assert main([command, "--model", model, "--size", "3", "--ppm"]) == 2
    assert capsys.readouterr() == ("", "error: --ppm needs --out\n")


def test_assemble_reports_temperature_zero_as_one_warning_line(tmp_path, capsys):
    doc = json.loads(shipped_model_path("tstar").read_text())
    doc["temperature"] = 0
    path = tmp_path / "tau0.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["assemble", "--model", str(path), "--size", "4"]) == 0
    assert caught == []
    assert capsys.readouterr().err == (
        "warning: [temperature-zero] temperature 0: every empty location is a frontier\n")


def test_expect_valid_without_check_coloring_is_a_usage_error(tmp_path, capsys):
    # one tile type on a 3x3 window: a monochrome surface, so the coloring is invalid
    t = tile("t", 1, *[("g", 1)] * 4)
    model = tmp_path / "mono.json"
    model.write_text(json.dumps(tile_system_document(
        TileAssemblySystem({"t": t}, Configuration({(0, 0): "t"}), 1))))
    out = tmp_path / "out"
    argv = ["assemble", "--model", str(model), "--size", "3", "--expect-valid"]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: --expect-valid needs --check-coloring\n")
    assert not out.exists()
    assert main([*argv, "--check-coloring"]) == 1


def test_assemble_wrong_model_kind():
    assert main(["assemble", "--model", FIDELITY, "--size", "4"]) == 2


#: sha256 of (trace.txt, result.json) from `meshsim` on checkerboard_local
#: 32x32 for 15 rounds (message-free, every occupant inert), per seed, as
#: the mesh wrote them before its rounds on such models became event-driven.
MESHSIM_LOCAL_32 = {
    0: ("8a5683f6e8630563bdf0671174ba5138cb4a5150e2ae220f1491c06cd7719fc8",
        "83785fe5a29d5a70ec428aec6b9e0f4e2905e529328887a9cd8fa90713e74dc5"),
    1: ("3738d449c6cee0248d5a9c0200af07c8e70bc829a1013348b33648abf7018e7c",
        "a4cce38db6683a64e0e9af4bcbff2629ff3bb05224762a78b1281f340d125fa8"),
    2: ("fddaa3f93a0c704b78fe16e0e72d6c0fc09088480e38bdf81fdd888e985a31c4",
        "3f01ba67cdf46996ce990fd0a447e05233b40f283137c5084ed10db3e44ba95c"),
}
#: The same for fidelity2 16x16, 20 rounds, seed 0: with detachment no
#: occupant is inert.
MESHSIM_FIDELITY_16 = (
    "e08c8836488027dcb719935c3eb6208cffcec34fe7b9a199e005fc779ec869e2",
    "44dea4e92d2549ab8dbc7da5edb0a879d20756dce058815748dcdcb02c376f28",
)
#: sha256 of results.json from a checkerboard-local campaign at pi_nu 0.1,
#: sizes 8,16,32, 10 rounds, 12 trials, seed 0.
CAMPAIGN_RESULTS = "9878b2bf43456446da858ae9cc9d8e5748f4cd937f0b267e648ae830115b4ac4"
#: sha256 of results.csv from the same campaign, as written while each
#: column was spelled out by hand.
CAMPAIGN_RESULTS_CSV = "41d6f9f9b256b79d940e6da3471e71c434b95f5dbabe932857ab483011213e49"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("model, size, rounds, seed, pins", [
    *((LOCAL, 32, 15, seed, pins) for seed, pins in sorted(MESHSIM_LOCAL_32.items())),
    (FIDELITY, 16, 20, 0, MESHSIM_FIDELITY_16),
])
def test_meshsim_bytes_are_pinned(tmp_path, capsys, model, size, rounds, seed, pins):
    code = main(["meshsim", "--model", model, "--size", str(size), "--rounds", str(rounds),
                 "--seed", str(seed), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert (_sha256(tmp_path / "trace.txt"), _sha256(tmp_path / "result.json")) == pins


#: A 3-dimensional model on the general mesh path: two `ping` agents whose
#: every side carries glue g (bond 1, temperature 2), with detachment.
PING3D = {
    "name": "ping-3d",
    "agents": [{"name": name, "color": color, "glues": ["g"] * 6, "rule": "ping"}
               for name, color in (("amber", 1), ("jade", 2))],
    "rules": [{"a": "g", "b": "g", "strength": 1}],
    "temperature": 2,
    "messages": ["p"],
    "pi_nu": 0.05,
    "kinetics": {"lambda_on": 0.5, "p_off": 0.2, "epsilon": 0.1, "detach": True},
}
#: A 2-dimensional model with ids whose posts depend on its inputs: `relay`
#: agents pass messages on and detach on hearing "q" from two sides.
RELAY_IDS = {
    "name": "relay-ids",
    "agents": [{"name": name, "color": color, "glues": ["g"] * 4, "rule": "relay"}
               for name, color in (("amber", 1), ("jade", 2))],
    "rules": [{"a": "g", "b": "g", "strength": 1}],
    "temperature": 1,
    "messages": ["p", "q"],
    "pi_nu": 0.1,
    "use_ids": True,
    "kinetics": {"lambda_on": 0.5, "p_off": 0.3, "epsilon": 0.1, "detach": True},
}
#: sha256 of (trace.txt, result.json) from `meshsim` on PING3D at 10^3 for
#: 15 rounds, per seed, and on RELAY_IDS at 16x16 for 20 rounds, seed 0, as
#: the mesh wrote them before its general rounds became event-driven.
MESHSIM_PING3D_10 = {
    0: ("c11620b5ed45e3bb2114b29a7265f71ab19cc898a3ef9ec36ba0b40b6adf86ac",
        "abd3b7c782dcf6909255d896385a37da2cd7d6e59eb15b99c058f0e2a7dbf3d4"),
    1: ("0f0ff4da0a334ac018310d5e2fcefafa44596bfe2831539a3b57f0759d19ace0",
        "52025cd2afb5100a2adc13f592b403d79dacb8b9394c2faecaae771745940bdd"),
    2: ("d7099c23afd311b8479e7b0b597e58aef21d84373e3a62ab03cf667b891ed4fb",
        "21d526199ad50d45418c3ddfc25dfb5c8bd80925a76ed86b522e8e883202757e"),
}
MESHSIM_RELAY_IDS_16 = (
    "a1b9a6e0622b85861777e4739948de89fdf57937432e4097522c6317309d9bdc",
    "4214cfa914ed3240b8cd9bdab69c57584e5f303fadb283c81c0e61b0f0099c4d",
)


def _meshsim_hashes(tmp_path, capsys, doc, size, rounds, seed) -> tuple:
    """sha256 of (trace.txt, result.json) from `meshsim` on a model document."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["meshsim", "--model", str(model), "--size", str(size), "--rounds",
                 str(rounds), "--seed", str(seed), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return _sha256(out / "trace.txt"), _sha256(out / "result.json")


@pytest.mark.parametrize("doc, size, rounds, seed, pins", [
    *((PING3D, 10, 15, seed, pins) for seed, pins in sorted(MESHSIM_PING3D_10.items())),
    (RELAY_IDS, 16, 20, 0, MESHSIM_RELAY_IDS_16),
])
def test_general_path_meshsim_bytes_are_pinned(tmp_path, capsys, doc, size, rounds, seed,
                                               pins):
    assert _meshsim_hashes(tmp_path, capsys, doc, size, rounds, seed) == pins


#: checkerboard-local's two agents with 6 glues: a 3-dimensional model
#: whose occupants are all inert (no detachment, no rules).
LOCAL3D = {
    "name": "checkerboard-local-3d",
    "agents": [{"name": name, "color": color, "glues": [glue] * 6, "rule": None}
               for name, color, glue in (("dark", 1, "c1"), ("light", 2, "c2"))],
    "rules": [{"a": "c1", "b": "c1", "strength": -4}, {"a": "c1", "b": "c2", "strength": 1},
              {"a": "c2", "b": "c2", "strength": -4}],
    "temperature": 1,
    "messages": [],
    "pi_nu": 0.1,
    "kinetics": {"lambda_on": 1.0, "p_off": 0.0, "epsilon": 0.0, "detach": False},
}
#: sha256 of (trace.txt, result.json) from `meshsim` on LOCAL3D at 8^3 for
#: 10 rounds per seed, and on PING3D at 20^3 for 30 rounds at seed 0, as the
#: mesh wrote them while it still delivered over neighbor triples.
MESHSIM_LOCAL3D_8 = {
    0: ("fab962f59f977321b2040efe49168e05a79594006cd371ed083e3c6169f46d36",
        "e79bdf1851a201150283608b01f47b06acd65ee33a6a8f9641c9b3df755f122f"),
    1: ("3e22e7ff28d7c45ad2a6238ba8c0e9ba0feef50137b65e2a68dd52e8e37d4a44",
        "8526368bec26db310b5f7cf448e824a185f406590db407d33fe51016f642b2e4"),
    2: ("6c5e61a23ebe17e0c7c1de4013079fb61d81fa82ef744bc29473c624a634c848",
        "005e0ded383216c9aa85ce66df88752a77a7b0f2a40de168f04cdfdfe523639a"),
}
MESHSIM_PING3D_20 = (
    "1f288139e6bf0e157c802c6e3992efb5d009ee0f8ef37b26b9866f7a62cabef1",
    "80894a000b2d0f0e33cb68f66263b49636ae5622a82f3d2bffa9e8eb483f4e3d",
)


@pytest.mark.parametrize("doc, size, rounds, seed, pins", [
    *((LOCAL3D, 8, 10, seed, pins) for seed, pins in sorted(MESHSIM_LOCAL3D_8.items())),
    (PING3D, 20, 30, 0, MESHSIM_PING3D_20),
])
def test_three_dimensional_meshsim_bytes_are_pinned(tmp_path, capsys, doc, size, rounds,
                                                    seed, pins):
    assert _meshsim_hashes(tmp_path, capsys, doc, size, rounds, seed) == pins


def test_campaign_bytes_are_pinned(tmp_path, capsys):
    code = main(["experiment", "--rule", "checkerboard-local", "--pi-nu", "0.1",
                 "--sizes", "8,16,32", "--rounds", "10", "--trials", "12",
                 "--seed", "0", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert _sha256(tmp_path / "results.json") == CAMPAIGN_RESULTS
    assert _sha256(tmp_path / "results.csv") == CAMPAIGN_RESULTS_CSV


def test_meshsim_outputs_are_reproducible(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = main(["meshsim", "--model", LOCAL, "--size", "8", "--rounds", "10",
                     "--seed", "7", "--out", str(d)])
        assert code == 0
    capsys.readouterr()
    for name in ("trace.txt", "snapshot.txt", "coloring.json", "result.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_meshsim_zero_rounds(tmp_path, capsys):
    code = main(["meshsim", "--model", LOCAL, "--size", "4", "--rounds", "0",
                 "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    _, events = parse_mesh_trace((tmp_path / "trace.txt").read_text())
    assert events and all(e.round == 0 for e in events)


def test_check_command_on_meshsim_coloring(tmp_path, capsys):
    main(["meshsim", "--model", LOCAL, "--size", "6", "--rounds", "10",
          "--seed", "2", "--out", str(tmp_path)])
    capsys.readouterr()
    code = main(["check", "--coloring", str(tmp_path / "coloring.json")])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(report) >= {"valid", "coverage", "violation_count", "violations",
                           "plus_centers"}


def test_check_expect_valid_fails_on_bad_coloring(tmp_path, capsys):
    doc = {"k": 2, "side": 2, "c": 2,
           "colors": {"0,0": 1, "1,0": 1, "0,1": 1, "1,1": 1}}
    path = tmp_path / "coloring.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--coloring", str(path), "--expect-valid"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["violation_count"] == 4


def test_fidelity_guard_rejects_big_windows(capsys):
    code = main(["fidelity", "--model", FIDELITY, "--size", "4", "--samples", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: fidelity windows are capped at 3x3; got 4\n"


def test_fidelity_small_sample_run(capsys):
    code = main(["fidelity", "--model", FIDELITY, "--size", "2",
                 "--samples", "2000", "--seed", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["support"]["equal"]
    assert report["tv_mesh_vs_model"] <= 0.1
    assert "per_cell_law" in report


#: sha256 of stdout from `fidelity` on fidelity2 3x3 at 3000 samples, per
#: seed: pins the mesh's round-1 draws and model_step's draws.
FIDELITY_STDOUT = {
    3: "b402757923cb5a9a4d44540a2772fed160d6c88cb5232bfbabe4e331ac3f05a3",
    8: "429fa12a44f8b3538b706718d7ca91d07d55f1514bb5812ed22ef340665e904c",
}


@pytest.mark.parametrize("seed", sorted(FIDELITY_STDOUT))
def test_fidelity_bytes_are_pinned(capsys, seed):
    code = main(["fidelity", "--model", FIDELITY, "--size", "3",
                 "--samples", "3000", "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FIDELITY_STDOUT[seed]


def test_experiment_cli_csv(tmp_path, capsys):
    code = main(["experiment", "--rule", "checkerboard-local", "--pi-nu", "0.2",
                 "--sizes", "2,4", "--rounds", "5", "--trials", "10",
                 "--seed", "13", "--out", str(tmp_path), "--format", "csv"])
    text = capsys.readouterr().out
    assert code == 0
    rows = parse_experiment_csv(text)
    assert [r["n"] for r in rows] == [2, 4]
    assert all(0.0 <= r["p_hat"] <= 1.0 for r in rows)
    assert (tmp_path / "results.csv").read_text() == text
    saved = json.loads((tmp_path / "results.json").read_text())
    assert saved["seed"] == 13


#: Content hash of the shipped checkerboard-local model at pi_nu 0.1, as
#: campaigns have recorded it in results.json since the model's hash stopped
#: depending on --sizes.
CAMPAIGN_MODEL_HASH = "sha256:fef308c64bd2f0e8fc8b80d090e7a41004bff234f58d8278cb14d4d53dae66cc"


def test_experiment_model_hash_ignores_sizes(tmp_path, capsys):
    hashes = []
    for sizes in ("8", "8,16", "16,32"):
        out = tmp_path / sizes.replace(",", "-")
        code = main(["experiment", "--rule", "checkerboard-local", "--pi-nu", "0.1",
                     "--sizes", sizes, "--rounds", "1", "--trials", "1",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        hashes.append(json.loads((out / "results.json").read_text())["model"])
    capsys.readouterr()
    assert hashes == [CAMPAIGN_MODEL_HASH] * 3


def test_experiment_cli_model_file(capsys):
    code = main(["experiment", "--model", LOCAL, "--sizes", "2", "--rounds", "3",
                 "--trials", "5", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["trials"] == 5


@pytest.mark.parametrize("flag", [["--rule", "checkerboard-local"], ["--pi-nu", "0.9"],
                                  ["--pi-nu", "0"]])
def test_family_flags_with_a_model_file_are_usage_errors(tmp_path, capsys, flag):
    out = tmp_path / "out"
    code = main(["experiment", "--model", LOCAL, *flag, "--sizes", "2", "--rounds", "3",
                 "--trials", "5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {flag[0]} applies only without --model\n")
    assert not out.exists()


def test_family_defaults_are_checkerboard_local_at_one_tenth(tmp_path, capsys):
    dirs = [tmp_path / "default", tmp_path / "explicit"]
    main(["experiment", "--sizes", "8", "--rounds", "1", "--trials", "1", "--out", str(dirs[0])])
    main(["experiment", "--rule", "checkerboard-local", "--pi-nu", "0.1", "--sizes", "8",
          "--rounds", "1", "--trials", "1", "--out", str(dirs[1])])
    capsys.readouterr()
    for name in ("results.csv", "results.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    assert json.loads((dirs[0] / "results.json").read_text())["model"] == CAMPAIGN_MODEL_HASH


def test_family_at_pi_nu_zero_is_not_the_default(capsys):
    named = nucleation_family(0.0, "checkerboard-local")
    expected = content_hash(agent_model_document(named.system, named.identifier))
    code = main(["experiment", "--pi-nu", "0", "--sizes", "4", "--rounds", "2",
                 "--trials", "3", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["model"] == expected != CAMPAIGN_MODEL_HASH
    assert doc["outcomes"][0]["successes"] == 0


#: One agent whose `ping` rule posts "p" although the model declares no
#: message alphabet; its seed cell posts at round 0.
OFF_ALPHABET = {
    "name": "off-alphabet",
    "agents": [{"name": "a", "color": 1, "glues": ["g"] * 4, "rule": "ping"}],
    "rules": [{"a": "g", "b": "g", "strength": 1}],
    "temperature": 1,
    "pi_nu": 0,
    "seed": [{"x": 0, "y": 0, "agent": "a"}],
}


@pytest.mark.parametrize("command", [
    ["meshsim", "--size", "4", "--rounds", "2"],
    ["experiment", "--sizes", "4", "--rounds", "2", "--trials", "2"],
    ["fidelity", "--size", "2", "--samples", "10"],
])
def test_a_rule_leaving_its_alphabet_is_a_validation_error(tmp_path, command):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(OFF_ALPHABET))
    env = dict(os.environ, PYTHONPATH=str(Path(nucleate.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "nucleate.cli", *command,
                           "--model", str(model), "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr == ("error: rule 'ping' emitted 'p', "
                           "not in the declared message alphabet\n")


def test_lint_model_flags_a_rule_leaving_its_alphabet(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(OFF_ALPHABET))
    assert main(["lint-model", "--model", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [(d["severity"], d["code"]) for d in report["diagnostics"]] == [
        ("error", "rule-out-of-bounds")]
    assert "emitted 'p'" in report["diagnostics"][0]["message"]


@pytest.mark.parametrize("doc", [PING3D, RELAY_IDS], ids=["ping3d", "relay-ids"])
def test_lint_model_passes_rules_that_stay_in_their_alphabet(tmp_path, capsys, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["lint-model", "--model", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"] == []


def test_lint_model_clean(capsys):
    assert main(["lint-model", "--model", TSTAR]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"] == []


def test_lint_model_warns_on_a_temperature_zero_tile_system(tmp_path, capsys):
    doc = json.loads(shipped_model_path("tstar").read_text())
    doc["temperature"] = 0
    path = tmp_path / "tau0.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["lint-model", "--model", str(path)]) == 1
    assert caught == []
    report = json.loads(capsys.readouterr().out)
    assert [(d["severity"], d["code"], d["path"]) for d in report["diagnostics"]] == [
        ("warning", "temperature-zero", "temperature")]


def test_lint_model_strict_flags_negative_strengths(capsys):
    assert main(["lint-model", "--model", LOCAL, "--strict"]) == 1
    report = json.loads(capsys.readouterr().out)
    codes = {d["code"] for d in report["diagnostics"]}
    assert "negative-strength" in codes


def test_lint_model_broken_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"agents": [], "rules": [], "temperature": 1}))
    assert main(["lint-model", "--model", str(path)]) == 1
    capsys.readouterr()
    path.write_text("{")
    assert main(["lint-model", "--model", str(path)]) == 1
    capsys.readouterr()
    for text in ("5", '"tiles"'):
        path.write_text(text)
        assert main(["lint-model", "--model", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["code"] for d in report["diagnostics"]] == ["not-an-object"]


def test_lint_model_prints_constructor_errors_as_codes(tmp_path, capsys):
    doc = json.loads(shipped_model_path("tstar").read_text())
    doc["tiles"][0]["color"] = 0
    path = tmp_path / "color0.json"
    path.write_text(json.dumps(doc))
    assert main(["lint-model", "--model", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [d["code"] for d in report["diagnostics"]] == ["bad-tile"]


@pytest.mark.parametrize("model", ["tstar", "checkerboard_local"])
def test_lint_model_prints_bad_string_for_a_non_string_name(tmp_path, capsys, model):
    doc = json.loads(shipped_model_path(model).read_text())
    doc["name"] = 5
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    assert main(["lint-model", "--model", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [d["code"] for d in report["diagnostics"]] == ["bad-string"]


@pytest.mark.parametrize("key, value, code", [
    ("c", 2.7, "bad-integer"),
    ("c", "2", "bad-integer"),
    ("k", 2.0, "bad-integer"),
    ("side", True, "bad-integer"),
    ("0,0", 2.9, "bad-integer"),
    ("0,0", "2", "bad-integer"),
    ("0,0", True, "bad-integer"),
    ("colors", [], "not-an-object"),
])
def test_check_rejects_coloring_files_that_are_not_integers(tmp_path, capsys, key, value, code):
    doc = {"k": 2, "side": 2, "c": 2,
           "colors": {"0,0": 1, "1,0": 2, "0,1": 2, "1,1": 1}}
    (doc["colors"] if key == "0,0" else doc)[key] = value
    path = tmp_path / "coloring.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--coloring", str(path)]) == 2
    assert f"[{code}]" in capsys.readouterr().err


def test_check_rejects_coloring_keys_that_are_not_vertices(tmp_path, capsys):
    path = tmp_path / "coloring.json"
    path.write_text(json.dumps({"k": 2, "side": 2, "c": 2, "colors": {"a,b": 1}}))
    assert main(["check", "--coloring", str(path)]) == 2
    assert "[bad-point]" in capsys.readouterr().err


def test_forced_growth_snapshot_matches_wavefront(tmp_path, capsys):
    doc = {
        "agents": [{"name": "t", "color": 1, "glues": ["g", "g", "g", "g"]}],
        "rules": [{"a": "g", "b": "g", "strength": 1}],
        "temperature": 1,
        "seed": [{"x": 0, "y": 0, "agent": "t"}],
    }
    model_path = tmp_path / "growth.json"
    model_path.write_text(json.dumps(doc))
    code = main(["meshsim", "--model", str(model_path), "--size", "3",
                 "--rounds", "2", "--seed", "4", "--format", "ascii"])
    out = capsys.readouterr().out
    assert code == 0
    # L1 ball of radius 2 around the sw corner
    assert out == "1..\n11.\n111\n"
