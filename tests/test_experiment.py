import pytest

from nucleate.experiment import (
    ExperimentSpec,
    exact_round_law,
    experiment_csv,
    experiment_json,
    load_experiment_json,
    parse_experiment_csv,
    product_law,
    run_experiment,
    run_fidelity,
    total_variation,
    wilson_interval,
)
from nucleate.formats import load_agent_model
from nucleate.systems import fidelity_model, nucleation_family, shipped_model_path


def test_wilson_interval_extremes():
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and lo > 0.6
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi < 0.35


def test_wilson_interval_known_value():
    # 8/10 at 95%: standard Wilson score interval
    lo, hi = wilson_interval(8, 10)
    assert lo == pytest.approx(0.4901, abs=2e-3)
    assert hi == pytest.approx(0.9433, abs=2e-3)


def test_wilson_interval_requires_trials():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_spec_validation():
    model = fidelity_model().system
    with pytest.raises(ValueError):
        ExperimentSpec(model, (8, 4), 10, 5)
    with pytest.raises(ValueError):
        ExperimentSpec(model, (8,), 10, 0)
    with pytest.raises(ValueError):
        ExperimentSpec(model, (8, 8), 10, 5)


def test_single_trial_probability_is_zero_or_one():
    model = nucleation_family(0.2, "checkerboard-local").system
    spec = ExperimentSpec(model, (4,), 5, 1, master_seed=3)
    result = run_experiment(spec)
    assert result.outcomes[0].p_hat in (0.0, 1.0)


def test_no_nucleation_and_no_seed_never_succeeds():
    model = nucleation_family(0.0, "checkerboard-local").system
    spec = ExperimentSpec(model, (2, 4), 5, 10, master_seed=3)
    result = run_experiment(spec)
    assert all(o.p_hat == 0.0 for o in result.outcomes)
    assert all(o.mean_rounds_to_valid is None for o in result.outcomes)


def test_rounds_to_valid_tracked():
    model = nucleation_family(1.0, "checkerboard-local").system
    spec = ExperimentSpec(model, (1,), 3, 5, master_seed=1)
    result = run_experiment(spec)
    o = result.outcomes[0]
    assert o.p_hat == 1.0
    assert o.mean_rounds_to_valid == 0.0  # valid straight after nucleation


def test_results_roundtrip_exactly():
    model = nucleation_family(0.3, "checkerboard-local").system
    spec = ExperimentSpec(model, (2, 4), 4, 20, master_seed=11)
    result = run_experiment(spec, model_hash="sha256:test")
    rows = parse_experiment_csv(experiment_csv(result))
    assert [r["n"] for r in rows] == [2, 4]
    for row, outcome in zip(rows, result.outcomes):
        assert row["successes"] == outcome.successes
        assert row["p_hat"] == outcome.p_hat
        assert row["ci_lo"] == outcome.ci_lo
        assert row["ci_hi"] == outcome.ci_hi
    assert load_experiment_json(experiment_json(result)) == result


# -- fidelity ----------------------------------------------------------


def test_fidelity_rejects_large_windows():
    model = fidelity_model().system
    with pytest.raises(ValueError):
        run_fidelity(model, 4, 100)


def test_exact_round_law_requires_deterministic_start():
    model = nucleation_family(0.5, "checkerboard-local").system
    with pytest.raises(ValueError):
        exact_round_law(model, 3)


def test_exact_round_law_normalizes():
    model = fidelity_model().system
    law = exact_round_law(model, 3)
    assert set(law) == set((x, y) for x in range(3) for y in range(3))
    for dist in law.values():
        assert abs(sum(dist.values()) - 1.0) <= 1e-12
        assert all(p >= 0 for p in dist.values())
    # corner seed: the two orthogonal neighbors can attach, the rest idles.
    # For each neighbor: both types reach the temperature, so lambda 0.5
    # splits as (1-eps)*0.5/2 + eps*0.5/2 = 0.25 apiece, 0.5 stays empty.
    assert law[(0, 0)] == {"amber": 1.0}
    assert law[(2, 2)] == {None: 1.0}
    attachable = law[(1, 0)]
    assert attachable["amber"] == pytest.approx(0.25, abs=1e-12)
    assert attachable["jade"] == pytest.approx(0.25, abs=1e-12)
    assert attachable[None] == pytest.approx(0.5, abs=1e-12)


def test_product_law_sums_to_one():
    model = fidelity_model().system
    joint = product_law(exact_round_law(model, 3))
    assert abs(sum(joint.values()) - 1.0) <= 1e-9
    assert len(joint) == 9  # two active cells with three outcomes each


def test_total_variation():
    assert total_variation({"a": 1.0}, {"a": 1.0}) == 0.0
    assert total_variation({"a": 1.0}, {"b": 1.0}) == 1.0
    assert total_variation({"a": 0.5, "b": 0.5}, {"a": 1.0}) == pytest.approx(0.5)


def test_fidelity_small_run_agrees():
    model, _ = load_agent_model(shipped_model_path("fidelity2"))
    report = run_fidelity(model, 3, 4000, master_seed=21)
    assert report.supports_equal
    assert report.tv_mesh_vs_model <= 0.05
    assert report.tv_mesh_vs_exact <= 0.05
    assert report.tv_model_vs_exact <= 0.05


def test_fidelity_single_cell_window():
    # on 1x1 the lone seeded cell has no neighbors and idles in both
    # simulators: one outcome, zero distance
    model = fidelity_model().system
    report = run_fidelity(model, 1, 500, master_seed=2)
    assert report.supports_equal and report.support_exact == 1
    assert report.tv_mesh_vs_model == 0.0
    assert report.tv_mesh_vs_exact == 0.0


def test_exact_round_law_has_no_empty_residue_at_full_attachment():
    # lambda_on = 1: every cell with a legal attachment fills, so the empty
    # outcome must be absent rather than carry a floating-point remainder
    # that inflates the exact support
    from nucleate.agents import AgentModel, AgentType, BindingRules, Kinetics

    types = {name: AgentType(name, (glue,) * 4, color=1)
             for name, glue in (("x", "a"), ("y", "b"), ("z", "a"))}
    model = AgentModel(
        types=types,
        rules=BindingRules({("a", "a"): 1, ("b", "b"): 1}),
        temperature=1,
        seed={(0, 0): "x"},
        kinetics=Kinetics(lambda_on=1.0, epsilon=0.3),
    )
    law = exact_round_law(model, 2)
    assert None not in law[(1, 0)] and None not in law[(0, 1)]
    report = run_fidelity(model, 2, 2000, master_seed=1)
    assert report.support_exact == 9
    assert report.supports_equal


def test_mesh_and_model_agree_on_one_seed():
    # the two simulators share their keyed draws: fed one seed, their
    # one-round outcomes coincide, so only disjoint seeds make criterion 4
    # compare independent samples
    from nucleate.agents import initial_state, model_step
    from nucleate.lattice import Mesh
    from nucleate.meshnet import MeshNetwork

    model = fidelity_model().system
    start = initial_state(model, Mesh(2, 3))
    outcomes = set()
    for seed in range(200):
        net = MeshNetwork(model, 3, master_seed=seed, record_trace=False)
        net.init_round0()
        net.run_round()
        assert model_step(start, model, seed).occupancy == net.states, seed
        outcomes.add(frozenset(net.states.items()))
    assert len(outcomes) == 9  # every outcome of the exact law was met


def test_fidelity_sides_draw_from_disjoint_seeds():
    report = run_fidelity(fidelity_model().system, 3, 2000, master_seed=44)
    assert report.supports_equal
    assert report.tv_mesh_vs_model > 0
