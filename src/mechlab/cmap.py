"""Cost-minimization allocation problems: instances, solvers, degeneracy tooling.

An instance fixes per-agent component counts and a set of allowable outputs,
each output a flat 0/1 vector over all components in agent-major order.
Types assign a value (typically a negated cost, so <= 0) to every component;
the welfare of an output is the sum of the selected components' values and
the goal is to maximize it, i.e. minimize total cost.

Graph-derived instances model procurement on a network whose edges are
privately owned: outputs are either source-rooted trees covering a terminal
set (multicast) or source-to-target paths.  The suboptimal rules here are
deliberately cost-blind, so escalating the cost of every component outside
the optimum drives their normalized welfare gap arbitrarily high.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .core import BudgetExceededError, Money
from .wd import EXACT, HEURISTIC, AllocationAlgorithm

CmapType = tuple[tuple[Money, ...], ...]
CmapOutput = tuple[int, ...]

MULTICAST = "multicast"
PATH = "path"

# Enumeration cap: graph instances beyond this many edges need label-setting.
ENUM_EDGE_LIMIT = 12


class CmapInstance(ABC):
    """Allowable-output structure shared by explicit and graph-derived instances."""

    @property
    @abstractmethod
    def component_counts(self) -> tuple[int, ...]: ...

    @property
    def num_agents(self) -> int:
        return len(self.component_counts)

    @property
    def total_components(self) -> int:
        return sum(self.component_counts)

    @abstractmethod
    def is_allowable(self, output: CmapOutput) -> bool: ...

    @abstractmethod
    def outputs(self) -> tuple[CmapOutput, ...]:
        """All allowable outputs, deterministically ordered."""

    def check_type(self, v: CmapType) -> None:
        if len(v) != self.num_agents:
            raise ValueError(f"type covers {len(v)} agents, instance has {self.num_agents}")
        for i, (vec, count) in enumerate(zip(v, self.component_counts)):
            if len(vec) != count:
                raise ValueError(f"agent {i} type has {len(vec)} components, expected {count}")


@dataclass(frozen=True)
class ExplicitCmap(CmapInstance):
    """An instance given by an explicit enumeration of its allowable outputs."""

    counts: tuple[int, ...]
    allowable: tuple[CmapOutput, ...]

    def __post_init__(self) -> None:
        if not self.allowable:
            raise ValueError("instance needs at least one allowable output")
        total = sum(self.counts)
        for x in self.allowable:
            if len(x) != total or any(bit not in (0, 1) for bit in x):
                raise ValueError(f"output {x} is not a 0/1 vector of length {total}")

    @property
    def component_counts(self) -> tuple[int, ...]:
        return self.counts

    def is_allowable(self, output: CmapOutput) -> bool:
        return tuple(output) in set(self.allowable)

    def outputs(self) -> tuple[CmapOutput, ...]:
        return self.allowable


@dataclass(frozen=True)
class GraphEdge:
    tail: int
    head: int
    owner: int
    cost: Money

    def __post_init__(self) -> None:
        if self.owner < 0:
            raise ValueError("edge owner must be a non-negative agent index")


@dataclass(frozen=True)
class GraphCmap(CmapInstance):
    """A procurement instance on a directed graph with privately owned edges.

    Components are edges, grouped by owner in edge input order; the flat
    output layout is agent-major.  ``structure`` selects the allowable-output
    family: source-rooted trees covering every terminal, or simple paths from
    the source to the single terminal.

    A bridge is an edge whose removal alone cuts a terminal off from the
    source.  Every allowable output contains every bridge, so owning one gives
    an agent no say over which output is chosen, and such instances are
    accepted.  An agent is rejected when removing its non-bridge edges cuts a
    terminal off: it then owns every alternative at some point where the
    graph offers a choice.  Edges are removed by position, so identical
    parallel edges count as distinct alternatives.
    """

    num_nodes: int
    edges: tuple[GraphEdge, ...]
    source: int
    terminals: tuple[int, ...]
    structure: str
    # The edge layout, derived once by __post_init__: per-owner counts, each
    # edge's flat component index, and edge positions by tail in input order.
    _counts: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _slots: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _by_tail: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.structure not in (MULTICAST, PATH):
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.structure == PATH and len(self.terminals) != 1:
            raise ValueError("path instances need exactly one terminal")
        if not self.terminals:
            raise ValueError("need at least one terminal")
        nodes = range(self.num_nodes)
        if self.source not in nodes or any(t not in nodes for t in self.terminals):
            raise ValueError("source/terminals must be nodes of the graph")
        if not self.edges:
            raise ValueError("graph instance needs at least one edge")
        if any(e.tail not in nodes or e.head not in nodes for e in self.edges):
            raise ValueError("edge endpoints must be nodes of the graph")
        by_owner: list[list[int]] = [[] for _ in range(max(e.owner for e in self.edges) + 1)]
        by_tail: dict[int, list[int]] = {}
        for pos, e in enumerate(self.edges):
            by_owner[e.owner].append(pos)
            by_tail.setdefault(e.tail, []).append(pos)
        order = [pos for owned in by_owner for pos in owned]
        # set in one fixed order, so every instance's __dict__ has the same keys
        object.__setattr__(self, "_counts", tuple(map(len, by_owner)))
        # sorting positions by their place in ``order`` inverts it: edge -> slot
        object.__setattr__(self, "_slots", tuple(sorted(range(len(order)), key=order.__getitem__)))
        object.__setattr__(self, "_by_tail", by_tail)

        def reaches_terminals(removed: set[int]) -> bool:
            return self._covers(self._hop_tree(removed))

        if not reaches_terminals(set()):
            raise ValueError("terminals unreachable from the source")
        for agent, owned in enumerate(map(set, by_owner)):
            if reaches_terminals(owned):
                continue
            # only an agent whose edges form a cut pays for the per-edge checks;
            # edges go by position, so equal parallel edges stay distinct
            non_bridges = {pos for pos in owned if reaches_terminals({pos})}
            if not reaches_terminals(non_bridges):
                raise ValueError(
                    f"agent {agent} monopolizes a choice: its non-bridge edges "
                    f"{sorted(non_bridges)} cut a terminal off; instance rejected"
                )

    @property
    def component_counts(self) -> tuple[int, ...]:
        return self._counts

    def output_from_edges(self, edge_positions: Iterable[int]) -> CmapOutput:
        bits = [0] * len(self.edges)
        for pos in edge_positions:
            bits[self._slots[pos]] = 1
        return tuple(bits)

    def edges_from_output(self, output: CmapOutput) -> tuple[int, ...]:
        return tuple(pos for pos, slot in enumerate(self._slots) if output[slot])

    def _hop_tree(self, removed: Collection[int] = ()) -> dict[int, int]:
        """Fewest-hops BFS tree from the source, avoiding the edges at ``removed``.

        Maps every reached node but the source to the position of its tree
        edge: the first edge, in input order, out of the earliest-reached
        node that reaches it.  Cost-blind and deterministic.
        """
        parent: dict[int, int] = {}
        queue = [self.source]
        for node in queue:  # appended to while iterated, so visited first-in first-out
            for pos in self._by_tail.get(node, ()):
                head = self.edges[pos].head
                if pos not in removed and head != self.source and head not in parent:
                    parent[head] = pos
                    queue.append(head)
        return parent

    def seed_type(self) -> CmapType:
        """The instance's declared costs, as a type (values are negated costs)."""
        per_agent: list[list[Money]] = [[] for _ in range(self.num_agents)]
        for e in self.edges:
            per_agent[e.owner].append(-e.cost)
        return tuple(tuple(vec) for vec in per_agent)

    def is_allowable(self, output: CmapOutput) -> bool:
        if len(output) != self.total_components or any(b not in (0, 1) for b in output):
            return False
        return self._allows(self.edges_from_output(output))

    def _covers(self, tree: dict[int, int]) -> bool:
        """Whether ``tree``, as built by ``_hop_tree``, reaches every terminal."""
        return all(t == self.source or t in tree for t in self.terminals)

    def _branches(self, tree: dict[int, int]) -> set[int]:
        """Edge positions on ``tree``'s paths from the source to the terminals it covers."""
        union: set[int] = set()
        for node in self.terminals:
            while node != self.source:
                union.add(tree[node])
                node = self.edges[tree[node]].tail
        return union

    def _allows(self, selected: tuple[int, ...]) -> bool:
        """Whether the edges at positions ``selected`` form an allowable output.

        The set is a source-rooted tree exactly when a BFS over it alone reaches
        every edge.  A covering such tree is a multicast output; it is the
        simple path to the target exactly when the target's branch is all of it.
        """
        # an edge into the source or a second edge into a node would stay out
        # of the BFS tree anyway; checking heads first skips most BFS runs
        heads = {self.edges[pos].head for pos in selected}
        if self.source in heads or len(heads) < len(selected):
            return False
        tree = self._hop_tree(set(range(len(self.edges))).difference(selected))
        if len(tree) != len(selected) or not self._covers(tree):
            return False
        return self.structure == MULTICAST or len(self._branches(tree)) == len(selected)

    def outputs(self) -> tuple[CmapOutput, ...]:
        if len(self.edges) > ENUM_EDGE_LIMIT:
            raise BudgetExceededError(
                f"{len(self.edges)} edges exceed the enumeration limit of {ENUM_EDGE_LIMIT}"
            )
        found = []
        for mask in range(1 << len(self.edges)):
            selected = tuple(pos for pos in range(len(self.edges)) if mask >> pos & 1)
            if self._allows(selected):
                found.append(self.output_from_edges(selected))
        return tuple(sorted(found))


# A cost-minimization rule is called as ``alg(instance, v)`` and returns an output.
CmapAlgorithm = AllocationAlgorithm


def cmap_welfare(instance: CmapInstance, v: CmapType, output: CmapOutput) -> Money:
    """Sum of selected component values (negated total cost), exact."""
    instance.check_type(v)
    if not instance.is_allowable(output):
        raise ValueError(f"output {output} is not allowable for this instance")
    flat = [value for vec in v for value in vec]
    return sum(value for value, bit in zip(flat, output) if bit)


def _dijkstra_path(instance: GraphCmap, v: CmapType) -> CmapOutput:
    """Exact label-setting for path instances of any size.

    Labels are (accumulated cost, output bit vector); extending a smaller
    label by an edge keeps it smaller, so settling nodes in label order also
    realizes the lexicographic tie-break on bit vectors.  Requires all
    component values <= 0 (non-negative costs).
    """
    flat = [value for vec in v for value in vec]
    if any(value > 0 for value in flat):
        raise ValueError("label-setting requires non-positive component values")
    target = instance.terminals[0]
    empty = tuple([0] * instance.total_components)
    start = (0, empty, instance.source)
    heap = [start]
    settled: set[int] = set()
    while heap:
        cost, bits, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            return bits
        for pos in instance._by_tail.get(node, ()):  # input order
            e = instance.edges[pos]
            if e.head in settled:
                continue
            idx = instance._slots[pos]
            extended = list(bits)
            extended[idx] = 1
            heapq.heappush(heap, (cost - flat[idx], tuple(extended), e.head))
    raise ValueError("no path from source to target")


def solve_cmap_optimal(instance: CmapInstance, v: CmapType) -> CmapOutput:
    """Welfare-argmax over the allowable outputs; ties lexicographically smallest.

    Explicit instances and graphs of at most 12 edges are solved by
    enumeration; larger path instances fall back to exact label-setting, and
    larger multicast instances raise ``BudgetExceededError`` from ``outputs``.
    """
    instance.check_type(v)
    large = isinstance(instance, GraphCmap) and len(instance.edges) > ENUM_EDGE_LIMIT
    if large and instance.structure == PATH:
        return _dijkstra_path(instance, v)
    return min(instance.outputs(), key=lambda x: (-cmap_welfare(instance, v, x), x))


def _first_path_fixed_order(instance: GraphCmap) -> tuple[int, ...]:
    """First simple source-to-target path found by DFS in edge input order."""
    target = instance.terminals[0]

    def dfs(node, visited, taken):
        if node == target:
            return taken
        for pos in instance._by_tail.get(node, ()):
            e = instance.edges[pos]
            if e.head not in visited:
                found = dfs(e.head, visited | {e.head}, taken + [pos])
                if found is not None:
                    return found
        return None

    path = dfs(instance.source, {instance.source}, [])
    if path is None:
        raise ValueError("no path from source to target")
    return tuple(path)


def solve_cmap_heuristic(instance: CmapInstance, v: CmapType) -> CmapOutput:
    """A deterministic, deliberately cost-blind suboptimal rule.

    Path instances take the first source-to-target path in fixed edge order.
    Multicast instances take the union of the fewest-hops paths to each
    terminal.  All of them lie in one BFS tree, so the union is already a
    source-rooted tree.
    Because the rule never reads the type, escalating off-optimum costs can
    make its output arbitrarily bad while staying allowable.
    """
    if not isinstance(instance, GraphCmap):
        raise ValueError("the heuristic is defined for graph-derived instances only")
    instance.check_type(v)
    if instance.structure == PATH:
        return instance.output_from_edges(_first_path_fixed_order(instance))
    return instance.output_from_edges(instance._branches(instance._hop_tree()))


def optimal_cmap_algorithm() -> CmapAlgorithm:
    return CmapAlgorithm("optimal", EXACT, solve_cmap_optimal)


def heuristic_cmap_algorithm() -> CmapAlgorithm:
    return CmapAlgorithm("heuristic", HEURISTIC, solve_cmap_heuristic)


def make_cmap_algorithm(name: str) -> CmapAlgorithm:
    if name == "optimal":
        return optimal_cmap_algorithm()
    if name == "heuristic":
        return heuristic_cmap_algorithm()
    raise ValueError(f"unknown cost-minimization algorithm {name!r}")


def forcing_type(v: CmapType, output: CmapOutput, alpha: Money) -> CmapType:
    """Pin the components selected by ``output``; price everything else at -alpha."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    flat = [value for vec in v for value in vec]
    if len(flat) != len(output):
        raise ValueError("output length does not match the type's component count")
    forced = []
    at = 0
    for vec in v:
        forced.append(tuple(
            value if output[at + j] else -alpha for j, value in enumerate(vec)
        ))
        at += len(vec)
    return tuple(forced)


def degeneracy_ratio(instance: CmapInstance, alg: CmapAlgorithm, v: CmapType) -> Fraction:
    """Normalized optimality gap (g_opt - g_alg) / (|g_opt| + 1), exact and >= 0.

    The +1 regularizer is one micro-unit, keeping the ratio finite at zero
    optimum; the numerator is oriented so a worse algorithm scores higher.
    """
    g_opt = cmap_welfare(instance, v, solve_cmap_optimal(instance, v))
    g_alg = cmap_welfare(instance, v, alg(instance, v))
    return Fraction(g_opt - g_alg, abs(g_opt) + 1)


def escalate_degeneracy(
    instance: CmapInstance,
    alg: CmapAlgorithm,
    seed: CmapType,
    alphas: Sequence[Money],
) -> tuple[Fraction, ...]:
    """Drive the normalized gap upward by pricing off-optimum components at -alpha.

    Starting from a seed type on which ``alg`` is suboptimal, every component
    outside the seed's optimal output is set to -alpha for each alpha in the
    schedule, and the degeneracy ratio of the resulting type is recorded.

    Raises:
        ValueError: if the algorithm is already optimal on the seed.
    """
    instance.check_type(seed)
    optimal_output = solve_cmap_optimal(instance, seed)
    g_opt = cmap_welfare(instance, seed, optimal_output)
    g_alg = cmap_welfare(instance, seed, alg(instance, seed))
    if g_alg == g_opt:
        raise ValueError(
            f"algorithm {alg.name!r} is already optimal on the seed type; nothing to escalate"
        )
    ratios = []
    for alpha in alphas:
        escalated = forcing_type(seed, optimal_output, alpha)
        ratios.append(degeneracy_ratio(instance, alg, escalated))
    return tuple(ratios)
