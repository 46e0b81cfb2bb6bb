import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nucleate
import support  # noqa: F401  registers the relay rule the pinned relay model runs
from nucleate.cli import main
from nucleate.formats import parse_mesh_trace
from nucleate.experiment import parse_experiment_csv
from nucleate.systems import shipped_model_path

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


def test_assemble_missing_file():
    assert main(["assemble", "--model", "/nonexistent/m.json", "--size", "4"]) == 2


def test_assemble_size_zero_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["assemble", "--model", TSTAR, "--size", "0"])
    assert err.value.code == 2


def test_assemble_wrong_model_kind():
    assert main(["assemble", "--model", FIDELITY, "--size", "4"]) == 2


#: sha256 of (trace.txt, result.json) from `meshsim` on checkerboard_local
#: 32x32 for 15 rounds (the static, message-free path), per seed, as the
#: mesh wrote them before its static rounds became event-driven.
MESHSIM_LOCAL_32 = {
    0: ("8a5683f6e8630563bdf0671174ba5138cb4a5150e2ae220f1491c06cd7719fc8",
        "83785fe5a29d5a70ec428aec6b9e0f4e2905e529328887a9cd8fa90713e74dc5"),
    1: ("3738d449c6cee0248d5a9c0200af07c8e70bc829a1013348b33648abf7018e7c",
        "a4cce38db6683a64e0e9af4bcbff2629ff3bb05224762a78b1281f340d125fa8"),
    2: ("fddaa3f93a0c704b78fe16e0e72d6c0fc09088480e38bdf81fdd888e985a31c4",
        "3f01ba67cdf46996ce990fd0a447e05233b40f283137c5084ed10db3e44ba95c"),
}
#: The same for fidelity2 16x16, 20 rounds, seed 0: detachment forces the
#: general path.
MESHSIM_FIDELITY_16 = (
    "e08c8836488027dcb719935c3eb6208cffcec34fe7b9a199e005fc779ec869e2",
    "44dea4e92d2549ab8dbc7da5edb0a879d20756dce058815748dcdcb02c376f28",
)
#: sha256 of results.json from a checkerboard-local campaign at pi_nu 0.1,
#: sizes 8,16,32, 10 rounds, 12 trials, seed 0.
CAMPAIGN_RESULTS = "9878b2bf43456446da858ae9cc9d8e5748f4cd937f0b267e648ae830115b4ac4"


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


@pytest.mark.parametrize("doc, size, rounds, seed, pins", [
    *((PING3D, 10, 15, seed, pins) for seed, pins in sorted(MESHSIM_PING3D_10.items())),
    (RELAY_IDS, 16, 20, 0, MESHSIM_RELAY_IDS_16),
])
def test_general_path_meshsim_bytes_are_pinned(tmp_path, capsys, doc, size, rounds, seed,
                                               pins):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["meshsim", "--model", str(model), "--size", str(size), "--rounds",
                 str(rounds), "--seed", str(seed), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert (_sha256(out / "trace.txt"), _sha256(out / "result.json")) == pins


def test_campaign_bytes_are_pinned(tmp_path, capsys):
    code = main(["experiment", "--rule", "checkerboard-local", "--pi-nu", "0.1",
                 "--sizes", "8,16,32", "--rounds", "10", "--trials", "12",
                 "--seed", "0", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    assert _sha256(tmp_path / "results.json") == CAMPAIGN_RESULTS


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


def test_lint_model_clean(capsys):
    assert main(["lint-model", "--model", TSTAR]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["diagnostics"] == []


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
