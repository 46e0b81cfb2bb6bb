import json

import pytest

from nucleate.cli import main
from nucleate.formats import parse_mesh_trace
from nucleate.experiment import parse_experiment_csv
from nucleate.systems import shipped_model_path

TSTAR = str(shipped_model_path("tstar"))
FIDELITY = str(shipped_model_path("fidelity2"))
LOCAL = str(shipped_model_path("checkerboard_local"))


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


def test_assemble_missing_file():
    assert main(["assemble", "--model", "/nonexistent/m.json", "--size", "4"]) == 2


def test_assemble_size_zero_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["assemble", "--model", TSTAR, "--size", "0"])
    assert err.value.code == 2


def test_assemble_wrong_model_kind():
    assert main(["assemble", "--model", FIDELITY, "--size", "4"]) == 2


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
    capsys.readouterr()
    assert code == 2


def test_fidelity_small_sample_run(capsys):
    code = main(["fidelity", "--model", FIDELITY, "--size", "2",
                 "--samples", "2000", "--seed", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["support"]["equal"]
    assert report["tv_mesh_vs_model"] <= 0.1
    assert "per_cell_law" in report


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


def test_experiment_model_hash_ignores_sizes(tmp_path, capsys):
    hashes = []
    for sizes in ("8,16", "16,32"):
        out = tmp_path / sizes.replace(",", "-")
        code = main(["experiment", "--rule", "checkerboard-local", "--pi-nu", "0.1",
                     "--sizes", sizes, "--rounds", "1", "--trials", "1",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        hashes.append(json.loads((out / "results.json").read_text())["model"])
    capsys.readouterr()
    assert hashes[0] == hashes[1]


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
