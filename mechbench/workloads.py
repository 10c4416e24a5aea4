"""Seeded inputs, operations and output checks for the four mechlab workloads.

Every workload is an infinite, deterministic stream of operations: op ``k``
of seed ``s`` is built from ``random.Random(f"{name}:{s}:{k}")`` alone, so
any op can be regenerated without replaying the ones before it.  A workload
supplies four pieces:

* ``generate(rng)``: the raw input of one op (profiles, graphs, costs).
  Library constructors run here, so their validation cost is input
  generation, not op time.
* ``prepare(inp, hooks)``: the zero-argument op.  Algorithm, pivot and
  appeal objects are built here through ``hooks`` so the traced run can
  wrap them; the untraced run passes :data:`PLAIN`.
* ``check(inp, out)``: a list of violated output properties (empty if the
  op is correct).  Checks call the library directly and run outside the
  timed region.
* ``encode(out)``: a canonical byte string of the op's output, fed to the
  per-seed output digest.

Only the public API of ``mechlab`` is used, and nothing from ``tests/``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from mechlab import cmap, core, payments, second_chance, wd

MAX_VALUE = 10**6  # values and costs are drawn from 0..10**6 micro-units


class Hooks:
    """Identity wrappers for the objects a workload passes into the library."""

    def algorithm(self, alg: wd.AllocationAlgorithm, name: str) -> wd.AllocationAlgorithm:
        return alg

    def pivot(self, pivot: payments.PivotRule) -> payments.PivotRule:
        return pivot

    def appeal(self, appeal: second_chance.Appeal) -> second_chance.Appeal:
        return appeal

    def cmap_algorithm(self, alg: cmap.CmapAlgorithm, name: str) -> cmap.CmapAlgorithm:
        return alg

    def run(self, fn: Callable[[], Any], layer: str) -> Callable[[], Any]:
        """Wrap the mechanism entry call of one op, which lives in ``layer``."""
        return fn


PLAIN = Hooks()


@dataclass(frozen=True)
class Sizes:
    """Instance sizes; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    vcg: tuple[int, int]  # agents, items
    second_chance: tuple[int, int]
    affine: tuple[int, int]
    cmap_small_edges: int
    cmap_large_nodes: int  # path length of the large instances
    cmap_large_every: int  # every k-th op is a large path instance


FULL = Sizes((8, 8), (6, 6), (3, 5), 9, 120, 4)
TINY = Sizes((3, 3), (3, 3), (2, 3), 6, 12, 4)


# ---------------------------------------------------------------- valuations

def _monotone(entries: list[int], m: int) -> tuple[int, ...]:
    closed = list(entries)
    for mask in range(1, 1 << m):
        for j in range(m):
            if mask >> j & 1 and closed[mask ^ (1 << j)] > closed[mask]:
                closed[mask] = closed[mask ^ (1 << j)]
    return tuple(closed)


def random_valuation(rng: random.Random, m: int, grid: int = 1,
                     kind: int | None = None) -> core.Valuation:
    """Representation ``kind`` (0-3, random if None), values on multiples of ``grid``."""
    top = MAX_VALUE // grid

    def value() -> int:
        return grid * rng.randint(0, top)

    if kind is None:
        kind = rng.randrange(4)
    if kind == 0:
        entries = [0] + [value() for _ in range((1 << m) - 1)]
        return core.TableValuation(_monotone(entries, m))
    if kind == 1:
        return core.SingleMindedValuation(m, rng.randint(1, (1 << m) - 1), value())
    if kind == 2:
        return core.AdditiveValuation(tuple(value() for _ in range(m)))
    bids = tuple((rng.randint(1, (1 << m) - 1), value()) for _ in range(rng.randint(1, 3)))
    return core.XorValuation(m, bids)


def random_profile(rng: random.Random, n: int, m: int, k: int, grid: int = 1) -> core.TypeProfile:
    """Agent ``i`` of op ``k`` gets representation ``(k + i) % 4``.

    A fixed mix of table, single-minded, additive and XOR valuations keeps
    the cost of one op, which depends on the mix, from drifting between seeds.
    """
    return core.TypeProfile(tuple(random_valuation(rng, m, grid, (k + i) % 4) for i in range(n)))


def _encode_outcome(out: payments.MechanismOutcome) -> bytes:
    return repr((out.allocation.bundles, out.payments, out.utilities)).encode()


def _corrupt_outcome(out: payments.MechanismOutcome) -> payments.MechanismOutcome:
    return payments.MechanismOutcome(
        out.allocation, (out.payments[0] + 1,) + out.payments[1:], out.utilities
    )


def _check_accounting(profile: core.TypeProfile, out: payments.MechanismOutcome) -> list[str]:
    errors = []
    for i, (p, u) in enumerate(zip(out.payments, out.utilities)):
        if u != profile[i].value(out.allocation.bundles[i]) + p:
            errors.append(f"agent {i}: utility {u} != true value + payment {p}")
        if u < 0:
            errors.append(f"agent {i}: utility {u} < 0 under truthful declarations")
    return errors


# ------------------------------------------------------------------ vcg_exact

class VcgExact:
    """``run_vcg_based(optimal, clarke_exact)`` on fresh truthful profiles."""

    name = "vcg_exact"

    def __init__(self, sizes: Sizes):
        self.n, self.m = sizes.vcg

    def generate(self, rng: random.Random, k: int) -> core.TypeProfile:
        return random_profile(rng, self.n, self.m, k)

    def prepare(self, profile: core.TypeProfile, hooks: Hooks) -> Callable[[], Any]:
        alg = wd.optimal_algorithm()
        pivot = hooks.pivot(payments.make_pivot("clarke_exact"))
        return hooks.run(lambda: payments.run_vcg_based(alg, profile, pivot, profile), "payments")

    def check(self, profile: core.TypeProfile, out: payments.MechanismOutcome) -> list[str]:
        errors = _check_accounting(profile, out)
        errors += [f"agent {i}: payment {p} > 0" for i, p in enumerate(out.payments) if p > 0]
        greedy = core.welfare(profile, wd.solve_greedy(profile))
        if core.welfare(profile, out.allocation) < greedy:
            errors.append(f"welfare below the greedy welfare {greedy}")
        return errors

    encode = staticmethod(_encode_outcome)
    corrupt = staticmethod(_corrupt_outcome)


# ----------------------------------------------------------- second_chance_ir

TIME_LIMIT = 60  # steps; every appeal of the mix fits except the over-budget one
APPEAL_KINDS = 7


@dataclass(frozen=True)
class ScInput:
    profile: core.TypeProfile
    kinds: tuple[int, ...]  # appeal kind per agent, 0..APPEAL_KINDS-1
    alternatives: tuple[core.Valuation, ...]  # per-agent replacement declarations
    suggestions: tuple[core.TypeProfile, ...]  # fixed suggested profiles


class Raising(second_chance.Appeal):
    """Runs the algorithm once, then raises: must degrade to a decline."""

    def __init__(self, alg: wd.AllocationAlgorithm):
        self.alg = alg

    def transform(self, profile, meter):
        second_chance.charged_algorithm(self.alg, profile, meter)
        raise RuntimeError("appeal failed on purpose")

    def step_bound(self, num_agents: int) -> int:
        return second_chance.algorithm_step_cost(num_agents)


class SecondChanceIr:
    """``run_second_chance_ir(greedy)`` with one appeal per agent from a fixed mix.

    Agent ``i`` of op ``k`` submits appeal kind ``(k + i) % 7``: decline,
    replace-own, best-of over replace-profile suggestions, the feasibly
    truthful simulation appeal, the bounded-family simulation appeal, an
    appeal that runs out of steps, and an appeal that raises.
    """

    name = "second_chance_ir"

    def __init__(self, sizes: Sizes):
        self.n, self.m = sizes.second_chance

    def generate(self, rng: random.Random, k: int) -> ScInput:
        profile = random_profile(rng, self.n, self.m, k)
        alternatives = tuple(random_valuation(rng, self.m) for _ in range(self.n))
        suggestions = []
        for _ in range(12):
            vals = list(profile.valuations)
            for i in rng.sample(range(self.n), 2):
                vals[i] = random_valuation(rng, self.m)
            suggestions.append(core.TypeProfile(tuple(vals)))
        kinds = tuple((k + i) % APPEAL_KINDS for i in range(self.n))
        return ScInput(profile, kinds, alternatives, tuple(suggestions))

    def _appeal(self, inp: ScInput, agent: int, alg: wd.AllocationAlgorithm):
        sc = second_chance
        profile = inp.profile
        kind = inp.kinds[agent]
        suggest = [sc.ReplaceProfile(s) for s in inp.suggestions]
        if kind == 0:
            return sc.DECLINE
        if kind == 1:
            return sc.ReplaceOwn(agent, inp.alternatives[agent])
        if kind == 2:
            return sc.BestOf(tuple(suggest[:3]), profile, alg)
        if kind in (3, 4):
            opponents = tuple(
                sc.Action(profile[j], sc.DECLINE) for j in range(profile.num_agents) if j != agent
            )
            decoy = tuple(sc.Action(inp.alternatives[j], sc.DECLINE) for j in range(len(opponents)))
            if kind == 3:
                revision = sc.RevisionFunction((
                    (decoy, sc.Action(profile[agent], suggest[3])),
                    (opponents, sc.Action(inp.alternatives[agent], suggest[4])),
                ))
                return sc.build_feasibly_truthful_appeal(agent, profile[agent], revision, alg)
            revision = sc.RevisionFunction((
                (opponents, sc.Action(inp.alternatives[agent], suggest[5])),
                (decoy, sc.Action(profile[agent], suggest[6])),
            ))
            return sc.build_bounded_family_appeal(agent, profile[agent], revision, alg)
        if kind == 5:  # 12 scored runs of 1 + n steps each exceed TIME_LIMIT
            return sc.BestOf(tuple(suggest), profile, alg)
        return Raising(alg)

    def prepare(self, inp: ScInput, hooks: Hooks) -> Callable[[], Any]:
        alg = hooks.algorithm(wd.greedy_algorithm(), "greedy")
        appeals = [hooks.appeal(self._appeal(inp, i, alg)) for i in range(self.n)]
        actions = second_chance.truthful_actions(inp.profile, appeals)
        return hooks.run(
            lambda: second_chance.run_second_chance_ir(alg, actions, TIME_LIMIT, inp.profile),
            "payments",
        )

    def check(self, inp: ScInput, out: payments.MechanismOutcome) -> list[str]:
        return _check_accounting(inp.profile, out)

    encode = staticmethod(_encode_outcome)
    corrupt = staticmethod(_corrupt_outcome)


# ---------------------------------------------------------------- affine_enum

class Preference:
    """The mechanism's own term: a bonus per allocated (agent, item) pair."""

    def __init__(self, bonus: tuple[tuple[int, ...], ...]):
        self.bonus = bonus

    def __call__(self, alloc: core.Allocation) -> int:
        total = 0
        for row, bundle in zip(self.bonus, alloc.bundles):
            for j, b in enumerate(row):
                if bundle >> j & 1:
                    total += b
        return total


@dataclass(frozen=True)
class AffineInput:
    profile: core.TypeProfile
    weights: core.AffineWeights


class AffineEnum:
    """``affine_based_payments`` with the affine optimum and its Clarke pivot.

    Weights are drawn from {1, 2, 3}; values and preference bonuses are
    multiples of the weights' LCM, so every exact payment is an integer
    number of micro-units.  Odd ops carry a preference term, even ops none.
    """

    name = "affine_enum"

    def __init__(self, sizes: Sizes):
        self.n, self.m = sizes.affine

    def generate(self, rng: random.Random, k: int) -> AffineInput:
        raw = [rng.randint(1, 3) for _ in range(self.n)]
        grid = math.lcm(*raw)
        profile = random_profile(rng, self.n, self.m, k, grid)
        preference = None
        if k % 2:
            preference = Preference(tuple(
                tuple(grid * rng.randint(0, MAX_VALUE // (5 * grid)) for _ in range(self.m))
                for _ in range(self.n)
            ))
        weights = core.AffineWeights(tuple(Fraction(a) for a in raw), preference)
        return AffineInput(profile, weights)

    def prepare(self, inp: AffineInput, hooks: Hooks) -> Callable[[], Any]:
        base = wd.affine_optimal_algorithm(inp.weights)
        chosen = []

        def solve(profile: core.TypeProfile) -> core.Allocation:
            alloc = base.fn(profile)
            if profile is inp.profile:  # the mechanism's own allocation, not a pivot's
                chosen.append(alloc)
            return alloc

        name = "affine_nopref" if inp.weights.preference is None else "affine_pref"
        alg = hooks.algorithm(wd.AllocationAlgorithm(base.name, base.kind, solve), name)
        pivot = hooks.pivot(payments.clarke_pivot(alg))
        run = hooks.run(
            lambda: payments.affine_based_payments(alg, inp.profile, inp.weights, pivot),
            "payments",
        )
        return lambda: (run(), chosen[-1])

    def check(self, inp: AffineInput, out) -> list[str]:
        pay, chosen = out
        errors = [f"agent {i}: payment {p!r} is not an integer"
                  for i, p in enumerate(pay) if type(p) is not int]
        got = core.weighted_welfare(inp.weights, inp.profile, chosen)
        floor = core.weighted_welfare(inp.weights, inp.profile, wd.solve_optimal(inp.profile))
        if got < floor:
            errors.append(f"weighted welfare {got} below that of the welfare optimum {floor}")
        return errors

    @staticmethod
    def encode(out) -> bytes:
        pay, chosen = out
        return repr((pay, chosen.bundles)).encode()

    @staticmethod
    def corrupt(out):
        pay, chosen = out
        return (pay[0] + 1,) + pay[1:], chosen


# ------------------------------------------------------------ cmap_degeneracy

ALREADY_OPTIMAL = "already-optimal"  # the documented ValueError of escalate_degeneracy


def _reaches(num_nodes: int, edges, source: int, terminals, skip_owner: int = -1) -> bool:
    adjacency: list[list[int]] = [[] for _ in range(num_nodes)]
    for tail, head, owner in edges:
        if owner != skip_owner:
            adjacency[tail].append(head)
    reached = {source}
    frontier = [source]
    while frontier:
        for head in adjacency[frontier.pop()]:
            if head not in reached:
                reached.add(head)
                frontier.append(head)
    return all(t in reached for t in terminals)


def _no_agent_cut(num_nodes: int, edges, source: int, terminals, agents: int) -> bool:
    """True if the terminals stay reachable after removing any one agent's edges.

    The library's own rule may relax; inputs that pass this strictest rule
    stay valid under any relaxation.
    """
    return _reaches(num_nodes, edges, source, terminals) and all(
        _reaches(num_nodes, edges, source, terminals, agent) for agent in range(agents)
    )


@dataclass(frozen=True)
class CmapInput:
    instance: cmap.GraphCmap
    seed: cmap.CmapType
    alphas: tuple[int, ...]


class CmapDegeneracy:
    """``escalate_degeneracy(heuristic, ...)`` on random owned-edge graphs.

    Every ``cmap_large_every``-th op is a large layered path instance solved
    by label-setting; the others alternate small path and small multicast
    instances solved by enumeration.  Alphas are at least every cost, so
    the seed optimum stays optimal and the ratios cannot decrease.
    """

    name = "cmap_degeneracy"
    alphas = (MAX_VALUE, 10 * MAX_VALUE, 100 * MAX_VALUE)

    def __init__(self, sizes: Sizes):
        self.small_edges = sizes.cmap_small_edges
        self.large_nodes = sizes.cmap_large_nodes
        self.large_every = sizes.cmap_large_every

    def generate(self, rng: random.Random, k: int) -> CmapInput:
        if k % self.large_every == self.large_every - 1:
            instance = self._large_path(rng)
        else:
            instance = self._small(rng, cmap.PATH if k % 2 == 0 else cmap.MULTICAST)
        return CmapInput(instance, instance.seed_type(), self.alphas)

    def _small(self, rng: random.Random, structure: str) -> cmap.GraphCmap:
        while True:
            nodes = rng.randint(4, 6)
            agents = rng.randint(2, 4)
            edges = []
            for _ in range(self.small_edges):
                tail, head = rng.sample(range(nodes), 2)
                edges.append((tail, head, rng.randrange(agents)))
            if len({owner for _, _, owner in edges}) != agents:
                continue
            if structure == cmap.PATH:
                terminals = (nodes - 1,)
            else:
                terminals = tuple(sorted(rng.sample(range(1, nodes), 2)))
            if _no_agent_cut(nodes, edges, 0, terminals, agents):
                return self._instance(rng, nodes, edges, terminals, structure)

    def _large_path(self, rng: random.Random) -> cmap.GraphCmap:
        """A layered DAG: two differently owned edges per hop plus forward skips."""
        nodes = self.large_nodes
        agents = 8
        edges = []
        for i in range(nodes - 1):
            first, second = rng.sample(range(agents), 2)
            edges.append((i, i + 1, first))
            edges.append((i, i + 1, second))
            if i + 2 < nodes:
                edges.append((i, rng.randint(i + 2, min(i + 4, nodes - 1)), rng.randrange(agents)))
        rng.shuffle(edges)
        terminals = (nodes - 1,)
        if not _no_agent_cut(nodes, edges, 0, terminals, agents):
            raise AssertionError("layered path instance has an agent cut")
        return self._instance(rng, nodes, edges, terminals, cmap.PATH)

    @staticmethod
    def _instance(rng, nodes, edges, terminals, structure) -> cmap.GraphCmap:
        return cmap.GraphCmap(
            nodes,
            tuple(cmap.GraphEdge(t, h, o, rng.randint(1, MAX_VALUE)) for t, h, o in edges),
            0,
            terminals,
            structure,
        )

    def prepare(self, inp: CmapInput, hooks: Hooks) -> Callable[[], Any]:
        heuristic = hooks.cmap_algorithm(cmap.heuristic_cmap_algorithm(), "heuristic")

        def op():
            try:
                return cmap.escalate_degeneracy(inp.instance, heuristic, inp.seed, inp.alphas)
            except ValueError:  # documented for "already optimal"; the check confirms it
                return ALREADY_OPTIMAL

        return hooks.run(op, "cmap")

    def check(self, inp: CmapInput, out) -> list[str]:
        if out == ALREADY_OPTIMAL:
            opt = cmap.cmap_welfare(
                inp.instance, inp.seed, cmap.solve_cmap_optimal(inp.instance, inp.seed))
            got = cmap.cmap_welfare(
                inp.instance, inp.seed, cmap.solve_cmap_heuristic(inp.instance, inp.seed))
            return [] if got == opt else [f"declared already optimal, but {got} != {opt}"]
        errors = []
        if len(out) != len(inp.alphas):
            errors.append(f"{len(out)} ratios for {len(inp.alphas)} alphas")
        if any(r < 0 for r in out):
            errors.append(f"negative ratio in {out}")
        if any(b < a for a, b in zip(out, out[1:])):
            errors.append(f"ratios decrease in alpha: {out}")
        return errors

    @staticmethod
    def encode(out) -> bytes:
        if out == ALREADY_OPTIMAL:
            return out.encode()
        return repr([(r.numerator, r.denominator) for r in out]).encode()

    @staticmethod
    def corrupt(out):
        if out == ALREADY_OPTIMAL:
            return (Fraction(-1),)
        return (out[0], out[0] - Fraction(1, MAX_VALUE)) + out[2:]


WORKLOADS = {w.name: w for w in (VcgExact, SecondChanceIr, AffineEnum, CmapDegeneracy)}


def op_rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")
