"""The keyed draws: golden values that pin the key format, and the kernel
(`wakeups`, `drawer`, `seed_stream`) against its reference definitions
`derive_seed` and `uniform`."""

import hashlib
import math
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from nucleate.cli import main
from nucleate.lattice import Mesh
from nucleate.rng import derive_seed, drawer, seed_stream, uniform, wakeups, window_keys
from nucleate.systems import shipped_model_path

#: (master, *path) -> (derive_seed, uniform) of the same path.
GOLDEN = [
    ((0,), 14421525015532014153, 0.7817924376196929),
    ((0, (0, 0), 0), 2477196643858889773, 0.13428909914728038),
    ((7, (3, 5), 2), 15271385043114685062, 0.827863442030379),
    ((2 ** 64 - 1, (1, 2, 3), 40), 2155367762214161867, 0.11684272051489064),
    ((0, (0, 0), 0, 1), 8652314885948370977, 0.46904292981869466),
    ((12345, "mesh", 3), 10345186996288680827, 0.5608137108072488),
    ((5, 8, 2), 57221956029859652, 0.0031020084520720914),
]

SEEDS = st.one_of(st.sampled_from([0, 2 ** 64 - 1]), st.integers(0, 2 ** 64 - 1))


@pytest.mark.parametrize("path, seed, u", GOLDEN)
def test_derive_seed_and_uniform_are_pinned(path, seed, u):
    assert derive_seed(*path) == seed
    assert uniform(*path) == u


def test_window_keys_are_the_vertex_reprs_in_vertex_order():
    for k in (2, 3):
        for side in (1, 3):
            assert window_keys(k, side) == [repr(v).encode() for v in Mesh(k, side).vertices()]


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from([2, 3]), st.integers(1, 6), st.integers(0, 40))
def test_drawer_equals_uniform(seed, k, side, r):
    # the draws are named by vertex number, the index into the key list
    draw = drawer(seed, window_keys(k, side), r)
    for i, v in enumerate(Mesh(k, side).vertices()):
        assert draw(i) == uniform(seed, v, r)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from([2, 3]), st.integers(1, 6),
       st.one_of(st.floats(0.0, 1.0, allow_nan=False),
                 # pi_nu = 1, and values whose scaled threshold pi_nu * 2^53
                 # is an integer, where the byte limit has no rounding slack
                 st.sampled_from([1.0, 0.5, 0.375, 2.0 ** -53]),
                 st.integers(0, 2 ** 53).map(lambda m: m * 2.0 ** -53)))
def test_wakeups_equal_uniform_and_derive_seed(seed, k, side, pi_nu):
    expected = [(i, derive_seed(seed, v, 0, 1)) for i, v in enumerate(Mesh(k, side).vertices())
                if uniform(seed, v, 0) < pi_nu]
    assert wakeups(seed, window_keys(k, side), pi_nu) == expected


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from([2, 3]), st.integers(1, 6), st.data())
def test_wakeup_threshold_is_exact(seed, k, side, data):
    keys = window_keys(k, side)
    verts = list(Mesh(k, side).vertices())
    i = data.draw(st.integers(0, len(keys) - 1))
    v = verts[i]
    one = [keys[i]]  # a key list of one vertex, which it names 0
    u = uniform(seed, v, 0)
    # a cell wakes iff its draw lies strictly below pi_nu
    assert wakeups(seed, one, u) == []
    assert wakeups(seed, one, math.nextafter(u, 1)) == [(0, derive_seed(seed, v, 0, 1))]


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
def test_wakeup_bounds(seed):
    keys = window_keys(2, 6)
    assert wakeups(seed, keys, 0.0) == []
    assert wakeups(seed, keys, 1.0) == [(i, derive_seed(seed, v, 0, 1))
                                        for i, v in enumerate(Mesh(2, 6).vertices())]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("side", [1, 2, 5])
def test_the_plan_keys_and_kernel_follow_its_numbering(k, side):
    # the plan's key list is in vertex-number order, so the kernel's draws
    # and wake-ups at number i are the reference ones at verts[i]
    plan = _one_type_model(k).law.plan(side)
    seed = 2 ** 64 - 1 - side
    draw = drawer(seed, plan.keys, 3)
    assert [draw(i) for i in range(len(plan.verts))] == [uniform(seed, v, 3) for v in plan.verts]
    assert wakeups(seed, plan.keys, 0.5) == [(i, derive_seed(seed, v, 0, 1))
                                             for i, v in enumerate(plan.verts)
                                             if uniform(seed, v, 0) < 0.5]


def _one_type_model(k):
    from nucleate.agents import AgentModel, AgentType, BindingRules

    return AgentModel(types={"t": AgentType("t", ("g",) * (2 * k))},
                      rules=BindingRules({("g", "g"): 1}), temperature=1, k=k)


#: every code point but the surrogates, as st.text's default alphabet, without
#: the cost of building that alphabet's utf-8 table (about 200 MB)
PATH_ITEMS = st.recursive(
    st.one_of(st.integers(-2 ** 70, 2 ** 70),
              st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)),
    lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from([0, -1, -2 ** 63, 2 ** 64 - 1]), st.integers()),
       st.lists(PATH_ITEMS, max_size=4))
@example(0, [])
@example(-5, [])
@example(2 ** 64 - 1, ["mesh"])
@example(7, ["it's", 'a "quote"'])
@example(12, [3, -4, 5])
@example(-9, [(1, (2, "x")), (), ("y",)])
def test_seed_stream_equals_derive_seed(master, path):
    assert (list(islice(seed_stream(master, *path), 50))
            == [derive_seed(master, *path, i) for i in range(50)])


#: sha256 of stdout from `fidelity` on fidelity2 3x3 at the benchmark's
#: settings (20,000 samples, seed 7): both sides' per-sample seeds come
#: from seed_stream and every draw from the kernel.
FIDELITY_20K_STDOUT = "7bfe9855c40e9c1401fd15d7c9407102dc1d849d17aa83efd01aabc9b68739bc"


def test_fidelity_at_benchmark_scale_is_pinned(capsys):
    code = main(["fidelity", "--model", str(shipped_model_path("fidelity2")), "--size", "3",
                 "--samples", "20000", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FIDELITY_20K_STDOUT
