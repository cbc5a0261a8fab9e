import json

import numpy as np

import gen
import service_mix


def test_same_seed_same_decks():
    a = gen.mesh_deck(np.random.default_rng(5), 8, 8, rlc=True)
    b = gen.mesh_deck(np.random.default_rng(5), 8, 8, rlc=True)
    c = gen.mesh_deck(np.random.default_rng(6), 8, 8, rlc=True)
    assert a == b and a != c
    assert gen.cpe_mesh_deck(np.random.default_rng(1), 3, 3, 0.5) == \
        gen.cpe_mesh_deck(np.random.default_rng(1), 3, 3, 0.5)


def test_service_mix_is_a_function_of_the_seed():
    one, two = service_mix.Mix(3), service_mix.Mix(3)
    assert [r["line"] for r in one.cycles[0]] == [r["line"] for r in two.cycles[0]]
    assert [r["line"] for r in service_mix.Mix(4).cycles[0]] != \
        [r["line"] for r in one.cycles[0]]


def test_service_mix_sizes_straddle_the_daemon_limits():
    mix = service_mix.Mix(0)
    for cycle in mix.cycles:
        assert len(cycle) == service_mix.CYCLE
        sizes = {r["kind"]: len(r["line"]) for r in cycle}
        assert sizes["big"] < gen.LINE_LIMIT < sizes["oversize"]
        assert sum(r["kind"] == "oversize" for r in cycle) == 1
        json.loads(cycle[0]["line"])
    # more distinct decks than the daemon's default 8 resident sessions
    assert len(set(mix.rotating)) + 1 + len(mix.big) > 8


def test_mesh_state_count_is_above_the_sparse_threshold():
    from lib_grid import MESHES

    from repro.circuits import Netlist

    for k, (r, c, rlc) in enumerate(MESHES):
        netlist = Netlist.from_spice(gen.mesh_deck(np.random.default_rng(k), r, c, rlc=rlc))
        states = netlist.n_nodes + len(netlist.inductors)
        assert states >= 128 and states == r * c * (3 if rlc else 1)
