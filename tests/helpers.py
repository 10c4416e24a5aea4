"""Brute-force oracles and small-instance generators shared across test modules.

Everything here is deliberately independent of the library's solvers: optima
are found by plain enumeration so the dynamic programs and mechanisms have
something honest to be checked against.
"""

import itertools
import random

from mechlab.core import (
    AdditiveValuation,
    Allocation,
    SingleMindedValuation,
    TableValuation,
    TypeProfile,
    XorValuation,
    welfare,
)


def all_allocations(num_agents, num_items):
    """Every allocation: each item goes to one agent or stays unallocated."""
    for owners in itertools.product(range(num_agents + 1), repeat=num_items):
        bundles = [0] * num_agents
        for item, owner in enumerate(owners):
            if owner < num_agents:
                bundles[owner] |= 1 << item
        yield Allocation(tuple(bundles))


def brute_optimal(profile):
    """Welfare-argmax by enumeration, ties to the lexicographically smallest bundles."""
    best, best_key = None, None
    for alloc in all_allocations(profile.num_agents, profile.num_items):
        key = (-welfare(profile, alloc), alloc.bundles)
        if best_key is None or key < best_key:
            best, best_key = alloc, key
    return best


def brute_optimal_welfare(profile):
    return welfare(profile, brute_optimal(profile))


def monotone_tables(num_items, values):
    """All monotone value tables over the universe with entries from ``values``."""
    size = 1 << num_items
    values = sorted(set(values))
    assert 0 in values, "value alphabet must contain 0 for the empty bundle"

    tables = []

    def rec(entries):
        mask = len(entries)
        if mask == size:
            tables.append(TableValuation(tuple(entries)))
            return
        floor = 0
        for j in range(mask.bit_length()):
            if mask >> j & 1:
                floor = max(floor, entries[mask ^ (1 << j)])
        for v in values:
            if v >= floor:
                rec(entries + [v])

    rec([0])
    return tables


def random_valuation(rng: random.Random, num_items, max_value=9):
    """A random valid valuation of a random representation kind."""
    kind = rng.randrange(4)
    if kind == 0:
        entries = [0] + [rng.randint(0, max_value) for _ in range((1 << num_items) - 1)]
        closed = list(entries)
        for mask in range(1, 1 << num_items):
            for j in range(num_items):
                if mask >> j & 1:
                    closed[mask] = max(closed[mask], closed[mask ^ (1 << j)])
        return TableValuation(tuple(closed))
    if kind == 1:
        bundle = rng.randint(1, (1 << num_items) - 1)
        return SingleMindedValuation(num_items, bundle, rng.randint(0, max_value))
    if kind == 2:
        return AdditiveValuation(tuple(rng.randint(0, max_value) for _ in range(num_items)))
    bids = tuple(
        (rng.randint(1, (1 << num_items) - 1), rng.randint(0, max_value))
        for _ in range(rng.randint(1, 3))
    )
    return XorValuation(num_items, bids)


def random_profile(rng: random.Random, num_agents, num_items, max_value=9):
    return TypeProfile(
        tuple(random_valuation(rng, num_items, max_value) for _ in range(num_agents))
    )


def brute_cmap_outputs(instance):
    """Every allowable output of a ``GraphCmap``, sorted, found without its walks.

    The flat layout is rebuilt here: an edge's component index is its place
    among the edges sorted by owner, input order within an owner.  Paths are
    every simple source-to-target path, found by DFS.  An edge set S is a
    multicast tree iff |S| = |V_S| - 1, every node of V_S is reachable from
    the source within S, and V_S holds every terminal, where V_S is the
    source plus every endpoint of S.
    """
    edges = instance.edges
    order = sorted(range(len(edges)), key=lambda pos: edges[pos].owner)

    def output(edge_set):
        return tuple(int(order[slot] in edge_set) for slot in range(len(edges)))

    found = set()
    if instance.structure == "path":
        target = instance.terminals[0]

        def dfs(node, visited, taken):
            if node == target:
                found.add(output(taken))
                return
            for pos, e in enumerate(edges):
                if e.tail == node and e.head not in visited:
                    dfs(e.head, visited | {e.head}, taken | {pos})

        dfs(instance.source, {instance.source}, frozenset())
        return tuple(sorted(found))
    for size in range(len(edges) + 1):
        for subset in itertools.combinations(range(len(edges)), size):
            nodes = {instance.source}.union(*({edges[p].tail, edges[p].head} for p in subset))
            reached = {instance.source}
            grew = True
            while grew:
                grew = False
                for p in subset:
                    if edges[p].tail in reached and edges[p].head not in reached:
                        reached.add(edges[p].head)
                        grew = True
            if (len(subset) == len(nodes) - 1 and reached == nodes
                    and set(instance.terminals) <= nodes):
                found.add(output(set(subset)))
    return tuple(sorted(found))
