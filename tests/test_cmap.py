"""Tests for cost-minimization allocation problems and degeneracy escalation."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import brute_cmap_outputs
from mechlab.cmap import (
    ENUM_EDGE_LIMIT,
    ExplicitCmap,
    GraphCmap,
    GraphEdge,
    _dijkstra_path,
    cmap_welfare,
    degeneracy_ratio,
    escalate_degeneracy,
    forcing_type,
    heuristic_cmap_algorithm,
    make_cmap_algorithm,
    optimal_cmap_algorithm,
    solve_cmap_heuristic,
    solve_cmap_optimal,
)
from mechlab.core import BudgetExceededError, units


def parallel_edges():
    """Two parallel source-target edges; the expensive one is listed first,
    so the fixed-order path heuristic deterministically picks it."""
    return GraphCmap(
        num_nodes=2,
        edges=(GraphEdge(0, 1, owner=1, cost=2), GraphEdge(0, 1, owner=0, cost=1)),
        source=0,
        terminals=(1,),
        structure="path",
    )


def diamond():
    return GraphCmap(
        num_nodes=4,
        edges=(
            GraphEdge(0, 1, owner=0, cost=1),
            GraphEdge(0, 2, owner=1, cost=2),
            GraphEdge(1, 3, owner=2, cost=4),
            GraphEdge(2, 3, owner=3, cost=1),
        ),
        source=0,
        terminals=(3,),
        structure="path",
    )


def star_with_shortcut():
    """Direct one-hop edges to both terminals plus a cheap shared relay.

    The hop-count heuristic uses the direct edges (cost 6 total); the optimal
    tree routes through the relay (cost 3).
    """
    return GraphCmap(
        num_nodes=4,
        edges=(
            GraphEdge(0, 2, owner=0, cost=3),  # s -> t1 direct
            GraphEdge(0, 3, owner=1, cost=3),  # s -> t2 direct
            GraphEdge(0, 1, owner=2, cost=1),  # s -> relay
            GraphEdge(1, 2, owner=3, cost=1),  # relay -> t1
            GraphEdge(1, 3, owner=0, cost=1),  # relay -> t2
        ),
        source=0,
        terminals=(2, 3),
        structure="multicast",
    )


def test_component_layout_is_agent_major():
    inst = parallel_edges()
    assert inst.component_counts == (1, 1)
    # edge 0 belongs to agent 1, edge 1 to agent 0
    assert inst.output_from_edges([0]) == (0, 1)
    assert inst.output_from_edges([1]) == (1, 0)
    assert inst.seed_type() == ((-1,), (-2,))


def test_cmap_welfare_negates_cost():
    inst = GraphCmap(
        num_nodes=2,
        edges=(GraphEdge(0, 1, owner=0, cost=units(5)),),
        source=0,
        terminals=(1,),
        structure="path",
    )
    v = inst.seed_type()
    assert cmap_welfare(inst, v, (1,)) == -5_000_000


def test_cmap_welfare_empty_selection_when_allowable():
    inst = ExplicitCmap(counts=(1, 1), allowable=((0, 0), (1, 1)))
    assert cmap_welfare(inst, ((-3,), (-4,)), (0, 0)) == 0
    assert cmap_welfare(inst, ((-3,), (-4,)), (1, 1)) == -7


def test_cmap_welfare_two_edge_tree():
    inst = GraphCmap(
        num_nodes=3,
        edges=(GraphEdge(0, 1, owner=0, cost=1), GraphEdge(1, 2, owner=1, cost=2)),
        source=0,
        terminals=(2,),
        structure="multicast",
    )
    assert cmap_welfare(inst, inst.seed_type(), (1, 1)) == -3


def test_cmap_welfare_rejects_non_allowable():
    inst = parallel_edges()
    with pytest.raises(ValueError):
        cmap_welfare(inst, inst.seed_type(), (1, 1))  # two parallel edges, not a path


def test_optimal_picks_cheap_parallel_edge():
    inst = parallel_edges()
    x = solve_cmap_optimal(inst, inst.seed_type())
    assert x == (1, 0)
    assert cmap_welfare(inst, inst.seed_type(), x) == -1


def test_optimal_single_allowable_output():
    inst = ExplicitCmap(counts=(2,), allowable=((1, 0),))
    assert solve_cmap_optimal(inst, ((-9, -1),)) == (1, 0)


def test_optimal_matches_label_setting_on_diamond():
    inst = diamond()
    v = inst.seed_type()
    enumerated = solve_cmap_optimal(inst, v)
    labeled = _dijkstra_path(inst, v)
    assert enumerated == labeled
    assert cmap_welfare(inst, v, enumerated) == cmap_welfare(inst, v, labeled) == -3


def test_label_setting_handles_large_path_instances():
    # 13 chained edges exceed the enumeration limit and force label-setting.
    edges = tuple(GraphEdge(i, i + 1, owner=i % 3, cost=i + 1) for i in range(13))
    inst = GraphCmap(num_nodes=14, edges=edges, source=0, terminals=(13,), structure="path")
    v = inst.seed_type()
    with pytest.raises(BudgetExceededError):
        inst.outputs()
    x = solve_cmap_optimal(inst, v)
    assert cmap_welfare(inst, v, x) == -sum(range(1, 14))


def test_heuristic_picks_first_listed_path():
    inst = parallel_edges()
    x = solve_cmap_heuristic(inst, inst.seed_type())
    assert x == (0, 1)
    assert cmap_welfare(inst, inst.seed_type(), x) == -2


def test_heuristic_multicast_union_worse_than_steiner():
    inst = star_with_shortcut()
    v = inst.seed_type()
    heur = solve_cmap_heuristic(inst, v)
    opt = solve_cmap_optimal(inst, v)
    assert cmap_welfare(inst, v, heur) == -6
    assert cmap_welfare(inst, v, opt) == -3
    assert inst.is_allowable(heur)


def test_heuristic_trivially_optimal_on_unique_output():
    inst = GraphCmap(
        num_nodes=2,
        edges=(GraphEdge(0, 1, owner=0, cost=4),),
        source=0,
        terminals=(1,),
        structure="path",
    )
    assert solve_cmap_heuristic(inst, inst.seed_type()) == solve_cmap_optimal(
        inst, inst.seed_type()
    )


def test_heuristic_requires_graph_instance():
    inst = ExplicitCmap(counts=(1,), allowable=((0,), (1,)))
    with pytest.raises(ValueError):
        solve_cmap_heuristic(inst, ((-1,),))


def test_forcing_type_zero_alpha_zeroes_off_components():
    v = ((-3, -5), (-2,))
    assert forcing_type(v, (1, 0, 0), 0) == ((-3, 0), (0,))


def test_forcing_type_all_ones_is_identity():
    v = ((-3, -5), (-2,))
    assert forcing_type(v, (1, 1, 1), 1000) == v


def test_forcing_type_drives_other_outputs_down():
    inst = parallel_edges()
    v = inst.seed_type()
    x = solve_cmap_optimal(inst, v)  # the cheap edge
    other = (0, 1)
    previous = cmap_welfare(inst, v, other)
    for alpha in (10, 100, 1000):
        forced = forcing_type(v, x, alpha)
        assert cmap_welfare(inst, forced, x) == cmap_welfare(inst, v, x)
        now = cmap_welfare(inst, forced, other)
        assert now < previous
        previous = now


def test_forcing_type_rejects_negative_alpha():
    with pytest.raises(ValueError):
        forcing_type(((-1,),), (1,), -1)


def test_degeneracy_ratio_zero_for_optimal():
    inst = parallel_edges()
    assert degeneracy_ratio(inst, optimal_cmap_algorithm(), inst.seed_type()) == 0


def test_degeneracy_ratio_parallel_edges():
    inst = parallel_edges()
    ratio = degeneracy_ratio(inst, heuristic_cmap_algorithm(), inst.seed_type())
    assert ratio == Fraction(1, 2)  # (-1 - (-2)) / (1 + 1)


def test_degeneracy_ratio_grows_linearly_in_alpha():
    for alpha in (10, 100, 1000):
        inst = GraphCmap(
            num_nodes=2,
            edges=(GraphEdge(0, 1, owner=1, cost=alpha), GraphEdge(0, 1, owner=0, cost=1)),
            source=0,
            terminals=(1,),
            structure="path",
        )
        ratio = degeneracy_ratio(inst, heuristic_cmap_algorithm(), inst.seed_type())
        assert ratio == Fraction(alpha - 1, 2)


def test_escalation_exact_ratio_sequence():
    inst = parallel_edges()
    ratios = escalate_degeneracy(
        inst, heuristic_cmap_algorithm(), inst.seed_type(), (10, 100, 1000)
    )
    assert ratios == (Fraction(9, 2), Fraction(99, 2), Fraction(999, 2))


def test_escalation_rejects_optimal_algorithm():
    inst = parallel_edges()
    with pytest.raises(ValueError):
        escalate_degeneracy(inst, optimal_cmap_algorithm(), inst.seed_type(), (10,))


def test_escalation_three_paths_strictly_increasing():
    inst = GraphCmap(
        num_nodes=2,
        edges=(
            GraphEdge(0, 1, owner=0, cost=5),
            GraphEdge(0, 1, owner=1, cost=3),
            GraphEdge(0, 1, owner=2, cost=1),
        ),
        source=0,
        terminals=(1,),
        structure="path",
    )
    ratios = escalate_degeneracy(
        inst, heuristic_cmap_algorithm(), inst.seed_type(), (10, 100, 1000)
    )
    assert ratios[0] < ratios[1] < ratios[2]


def test_escalation_never_decreases_for_blind_heuristics():
    inst = star_with_shortcut()
    ratios = escalate_degeneracy(
        inst, heuristic_cmap_algorithm(), inst.seed_type(), (5, 50, 500, 5000)
    )
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))


def test_cut_owner_rejected():
    with pytest.raises(ValueError):
        GraphCmap(
            num_nodes=2,
            edges=(GraphEdge(0, 1, owner=0, cost=1), GraphEdge(0, 1, owner=0, cost=2)),
            source=0,
            terminals=(1,),
            structure="path",
        )


def bridge_then_parallel_hop(second_owner):
    """A bridge 0->1 owned by agent 0, then two parallel 1->2 edges."""
    return GraphCmap(
        num_nodes=3,
        edges=(
            GraphEdge(0, 1, owner=0, cost=1),
            GraphEdge(1, 2, owner=0, cost=1),
            GraphEdge(1, 2, owner=second_owner, cost=2),
        ),
        source=0,
        terminals=(2,),
        structure="path",
    )


def test_bridge_owner_holding_every_later_alternative_rejected():
    with pytest.raises(ValueError, match="agent 0 monopolizes"):
        bridge_then_parallel_hop(second_owner=0)


def test_bridge_owner_sharing_later_alternatives_accepted():
    inst = bridge_then_parallel_hop(second_owner=1)
    assert inst.component_counts == (2, 1)
    assert len(inst.outputs()) == 2


def test_identical_parallel_edges_one_owner_rejected():
    # equal GraphEdges are still two alternatives: removal goes by position
    edge = GraphEdge(0, 1, owner=0, cost=1)
    assert edge == GraphEdge(0, 1, owner=0, cost=1)
    with pytest.raises(ValueError, match="agent 0 monopolizes"):
        GraphCmap(num_nodes=2, edges=(edge, edge), source=0, terminals=(1,), structure="path")


def test_unreachable_terminal_rejected():
    with pytest.raises(ValueError):
        GraphCmap(
            num_nodes=3,
            edges=(GraphEdge(0, 1, owner=0, cost=1), GraphEdge(0, 1, owner=1, cost=1)),
            source=0,
            terminals=(2,),
            structure="multicast",
        )


def test_independence_of_other_agents_components():
    inst = parallel_edges()
    x = (1, 0)
    base = ((-1,), (-2,))
    changed = ((-1,), (-999,))
    # agent 0's contribution is unchanged when agent 1's type moves
    assert cmap_welfare(inst, base, x) == cmap_welfare(inst, changed, x)


def test_componentwise_decrease_never_increases_welfare():
    inst = diamond()
    v = inst.seed_type()
    worse = tuple(tuple(val - 7 for val in vec) for vec in v)
    for output in inst.outputs():
        assert cmap_welfare(inst, worse, output) <= cmap_welfare(inst, v, output)


def test_make_cmap_algorithm():
    assert make_cmap_algorithm("optimal").kind == "exact"
    assert make_cmap_algorithm("heuristic").kind == "heuristic"
    with pytest.raises(ValueError):
        make_cmap_algorithm("steiner")


@pytest.mark.parametrize("bad_edge", [GraphEdge(1, 7, 0, 1), GraphEdge(-3, 0, 1, 1)])
def test_edge_endpoints_outside_the_graph_rejected(bad_edge):
    edges = (GraphEdge(0, 1, 0, 1), GraphEdge(0, 1, 1, 1), bad_edge)
    with pytest.raises(ValueError, match="endpoints"):
        GraphCmap(2, edges, 0, (1,), "path")


def random_graph_cmap(rng, structure, max_edges, costs, min_edges=2):
    """A random small instance the constructor accepts, self-loops allowed."""
    while True:
        nodes = rng.randint(2, 5)
        edges = tuple(
            GraphEdge(rng.randrange(nodes), rng.randrange(nodes), owner=rng.randrange(3),
                      cost=rng.choice(costs))
            for _ in range(rng.randint(min_edges, max_edges))
        )
        if structure == "path":
            terminals = (rng.randrange(1, nodes),)
        else:
            terminals = tuple(rng.sample(range(nodes), rng.randint(1, min(3, nodes))))
        try:
            return GraphCmap(nodes, edges, 0, terminals, structure)
        except ValueError:
            continue


@pytest.mark.parametrize("structure", ["path", "multicast"])
def test_outputs_match_brute_force_oracle(structure):
    rng = random.Random(f"cmap-oracle-{structure}")
    for _ in range(200):
        inst = random_graph_cmap(rng, structure, max_edges=8, costs=(1,))
        assert inst.outputs() == brute_cmap_outputs(inst)


@pytest.mark.parametrize(
    ("seed", "min_edges", "max_edges", "graphs"),
    [
        pytest.param("cmap-label-setting", 2, 10, 400, id="2-10-edges"),
        pytest.param("cmap-label-setting-11", 11, ENUM_EDGE_LIMIT, 100, id="11-12-edges"),
    ],
)
def test_label_setting_matches_enumeration_with_ties(seed, min_edges, max_edges, graphs):
    rng = random.Random(seed)
    for _ in range(graphs):
        inst = random_graph_cmap(rng, "path", max_edges, (0, 1, 2), min_edges)
        v = inst.seed_type()
        enumerated = min(inst.outputs(), key=lambda x: (-cmap_welfare(inst, v, x), x))
        assert _dijkstra_path(inst, v) == enumerated


def test_layout_with_interleaved_owners_and_an_edgeless_owner():
    inst = GraphCmap(
        num_nodes=3,
        edges=(
            GraphEdge(0, 1, owner=2, cost=1),
            GraphEdge(0, 1, owner=0, cost=2),
            GraphEdge(1, 2, owner=2, cost=3),
            GraphEdge(1, 2, owner=0, cost=4),
        ),
        source=0,
        terminals=(2,),
        structure="path",
    )
    assert inst.component_counts == (2, 0, 2)
    assert inst.seed_type() == ((-2, -4), (), (-1, -3))
    assert inst.output_from_edges([0, 1]) == (1, 0, 1, 0)
    for size in range(5):
        for selected in itertools.combinations(range(4), size):
            assert inst.edges_from_output(inst.output_from_edges(selected)) == selected


def test_heuristic_multicast_shared_prefix_and_source_terminal():
    inst = GraphCmap(
        num_nodes=5,
        edges=(
            GraphEdge(0, 1, owner=0, cost=1),  # BFS tree edge to 1: the shared prefix
            GraphEdge(0, 2, owner=1, cost=1),
            GraphEdge(1, 3, owner=1, cost=1),  # tree edge to 3
            GraphEdge(1, 4, owner=0, cost=1),  # tree edge to 4
            GraphEdge(2, 3, owner=0, cost=1),
            GraphEdge(2, 4, owner=1, cost=1),
            GraphEdge(0, 1, owner=1, cost=1),
            GraphEdge(4, 3, owner=0, cost=1),
        ),
        source=0,
        terminals=(3, 0, 4),
        structure="multicast",
    )
    x = solve_cmap_heuristic(inst, inst.seed_type())
    assert inst.edges_from_output(x) == (0, 2, 3)
    assert x == (1, 1, 0, 0, 0, 1, 0, 0)
    assert inst.is_allowable(x)
    assert x in inst.outputs()
