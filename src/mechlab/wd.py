"""Winner-determination algorithms (exact and suboptimal) and range analysis.

All algorithms are deterministic pure maps from a type profile to a valid
allocation.  Ties go to the lexicographically smallest allocation encoding
(agent 0's bundle mask first, then agent 1's, and so on), except in
``solve_single_winner`` (lowest agent index) and ``solve_greedy`` (its
density order).  Determinism is load-bearing: the strategic analysis in
the rest of the package replays allocations and compares them bit-exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import add, attrgetter
from typing import Callable, Iterable, Sequence

from .core import (
    MAX_ITEMS,
    AffineWeights,
    Allocation,
    BudgetExceededError,
    Bundle,
    Money,
    SingleMindedValuation,
    TypeProfile,
    exact_div,
    full_bundle,
    units,
    value_table,
    welfare,
)

# n * 2**m cap for the exact solver; allows m = 12 with up to 16 agents.
DEFAULT_WD_BUDGET = 16 * 4096

# Every bundle size divides this, so val**2 * (_DENSITY_SCALE // size) orders
# bids exactly as the rational val**2 / size does, ties included.
_DENSITY_SCALE = math.lcm(*range(1, MAX_ITEMS + 1))

EXACT = "exact"
MAXIMAL_IN_RANGE = "maximal-in-range"
HEURISTIC = "heuristic"


@dataclass(frozen=True)
class AllocationAlgorithm:
    """A named deterministic allocation rule with its claimed optimality class.

    ``kind`` is ``EXACT``, ``MAXIMAL_IN_RANGE`` or ``HEURISTIC``.  Auction
    rules come from constructors such as ``optimal_algorithm()`` and are
    called with a profile; cost-minimization rules (``cmap.CmapAlgorithm``,
    this same type) are called with a ``GraphCmap`` and a type.  The wrapper
    passes its arguments through unchanged.
    """

    name: str
    kind: str
    fn: Callable

    def __call__(self, *args):
        return self.fn(*args)


@dataclass(frozen=True)
class AllocationRange:
    """An explicit, finite optimization range of allocations."""

    allocations: tuple[Allocation, ...]

    def __post_init__(self) -> None:
        if not self.allocations:
            raise ValueError("allocation range must be non-empty")
        n = self.allocations[0].num_agents
        if any(a.num_agents != n for a in self.allocations):
            raise ValueError("all range allocations must cover the same agents")


@dataclass(frozen=True)
class RangeViolation:
    """A profile where an algorithm failed to optimize over its own realized range."""

    profile: TypeProfile
    produced: Allocation
    better: Allocation


@dataclass(frozen=True)
class ReasonablenessWitness:
    """An item solely desired by one agent that the algorithm gave away.

    ``item`` strictly increases ``agent``'s value in some context while every
    other agent is indifferent to it everywhere, yet ``allocation`` does not
    hand the item to ``agent``.
    """

    item: int
    agent: int
    profile: TypeProfile
    allocation: Allocation


def _check_budget(n: int, m: int) -> None:
    if n * (1 << m) > DEFAULT_WD_BUDGET:
        raise BudgetExceededError(
            f"winner determination size {n}*2^{m} exceeds budget {DEFAULT_WD_BUDGET}")


@functools.lru_cache(maxsize=1)
def _suffix_rows(tables: tuple[tuple[Money, ...], ...], size: int) -> tuple[tuple[Money, ...], ...]:
    """rows[k][mask]: max welfare achievable by agents k.. of ``tables`` using items in mask.

    Cached for the last tables, which ``solve_optimal`` and ``excluded_optima``
    both ask for; the rows are tuples, so no caller can change the cached copy.
    """
    rows = [[0] * size for _ in range(len(tables) + 1)]
    for k in reversed(range(len(tables))):
        tk = tables[k]
        nxt = rows[k + 1]
        row = rows[k]
        for mask in range(size):
            top = tk[0] + nxt[mask]
            sub = mask
            while sub:
                cand = tk[sub] + nxt[mask ^ sub]
                if cand > top:
                    top = cand
                sub = (sub - 1) & mask
            row[mask] = top
    return tuple(map(tuple, rows))


def solve_optimal(profile: TypeProfile) -> Allocation:
    """Exact welfare-maximizing allocation.

    Dynamic program over item subsets, agent by agent; O(n * 3**m) time. The
    returned allocation is the lexicographically smallest optimum, so ties on
    an all-zero profile resolve to the empty allocation.  The DP rows of
    agents 1.. are the suffix rows ``excluded_optima`` reuses.

    Raises:
        BudgetExceededError: if n * 2**m exceeds ``DEFAULT_WD_BUDGET``.
    """
    _check_budget(profile.num_agents, profile.num_items)
    return _smallest_optimum(tuple(value_table(v) for v in profile.valuations),
                             1 << profile.num_items)


def _smallest_optimum(tables: tuple[tuple[Money, ...], ...], size: int) -> Allocation:
    """The lexicographically smallest allocation maximizing the sum of ``tables``.

    Items may stay unallocated, so this is the argmin of (-total, bundles)
    over every allocation.
    """
    rest = _suffix_rows(tables[1:], size)  # rest[k]: agents k+1..
    # full ^ mask == full - mask, so reversing a row pairs mask with its complement
    target = max(map(add, tables[0], reversed(rest[0])))
    bundles = []
    remaining = size - 1
    for table, after in zip(tables, rest):
        for sub in range(remaining + 1):
            if sub & remaining == sub and table[sub] + after[remaining ^ sub] == target:
                bundles.append(sub)
                remaining ^= sub
                target -= table[sub]
                break
    return Allocation(tuple(bundles))


def excluded_optima(profile: TypeProfile) -> tuple[Money, ...]:
    """Optimal welfare without agent i, for every agent i.

    Entry i equals ``solve_optimal``'s welfare on the profile with agent i's
    declaration zeroed.  A suffix DP (agents i+1..) and a prefix DP (agents
    ..i-1, a suffix DP over the reversed tables) serve every agent; entry i is
    the best split of the items between them, O(2**m) per agent instead of an
    O(n * 3**m) solve.  The suffix DP is ``solve_optimal``'s, and the result
    is cached for the last profile.

    Raises:
        BudgetExceededError: where ``solve_optimal`` does.
    """
    _check_budget(profile.num_agents, profile.num_items)
    return _excluded_optima(profile)


@functools.lru_cache(maxsize=1)
def _excluded_optima(profile: TypeProfile) -> tuple[Money, ...]:
    n, size = profile.num_agents, 1 << profile.num_items
    tables = tuple(value_table(v) for v in profile.valuations)
    suf = _suffix_rows(tables[1:], size)  # suf[i]: agents i+1..n-1
    pre = _suffix_rows(tables[-2::-1], size)  # pre[n-1-i]: agents 0..i-1
    return tuple(max(map(add, pre[n - 1 - i], reversed(suf[i]))) for i in range(n))


def solve_single_winner(profile: TypeProfile) -> Allocation:
    """All items to the agent with the highest full-bundle value; ties to the lowest index.

    Guarantees at least a max(1/n, 1/m) fraction of the optimal welfare.
    """
    everything = full_bundle(profile.num_items)
    winner = max(range(profile.num_agents), key=lambda i: (profile[i].value(everything), -i))
    bundles = [0] * profile.num_agents
    bundles[winner] = everything
    return Allocation(tuple(bundles))


def _density_key(entry: tuple[int, Bundle, Money]):
    agent, mask, val = entry
    # Exact value/sqrt(|bundle|) ordering: compare squared densities as integers.
    return (-(val * val) * (_DENSITY_SCALE // mask.bit_count()), -val, agent, mask)


def solve_greedy(profile: TypeProfile) -> Allocation:
    """Greedy bid acceptance by value/sqrt(bundle size) density.

    Each valuation is exploded into its atomic bids; bids are sorted by
    density (ties: larger value, then smaller agent index, then smaller
    bundle mask) and accepted when they conflict with nothing already
    accepted, at most one bid per agent.  Zero-value bids never appear.
    """
    entries = [
        (agent, mask, val)
        for agent, v in enumerate(profile.valuations)
        for mask, val in v.atoms()
    ]
    entries.sort(key=_density_key)
    bundles = [0] * profile.num_agents
    taken = 0
    served = set()
    for agent, mask, _ in entries:
        if agent in served or taken & mask:
            continue
        bundles[agent] = mask
        taken |= mask
        served.add(agent)
    return Allocation(tuple(bundles))


def solve_in_range(profile: TypeProfile, allocation_range: AllocationRange) -> Allocation:
    """Welfare-argmax over an explicit range; maximal in its range by construction."""
    return min(allocation_range.allocations, key=lambda a: (-welfare(profile, a), a.bundles))


# Preference values depend on the allocation alone, so every solve for one
# weights object (a mechanism's own and its pivots') reads the same ones.  One
# entry, matched by identity so an unhashable preference works; holding the
# weights object keeps its id from being reused.
_last_preference_pass: tuple = (None, 0, None)


def _preference_pass(weights: AffineWeights, m: int) -> tuple[list, list, list]:
    """Every allocation, agent i's bundle in each as column i, and preference * D in each."""
    global _last_preference_pass
    held, held_m, scored = _last_preference_pass
    if held is weights and held_m == m:
        return scored
    n = weights.num_agents

    def allocation(owners: tuple[int, ...]) -> Allocation:
        bundles = [0] * (n + 1)  # bundles[n]: the items nobody gets
        for item, owner in enumerate(owners):
            bundles[owner] |= 1 << item
        return Allocation(tuple(bundles[:n]))

    allocations = list(map(allocation, itertools.product(range(n + 1), repeat=m)))
    columns = list(zip(*(a.bundles for a in allocations)))
    scored = allocations, columns, [weights.preference(a) * weights.scale for a in allocations]
    _last_preference_pass = weights, m, scored
    return scored


def solve_optimal_weighted(weights: AffineWeights, profile: TypeProfile) -> Allocation:
    """Weighted-welfare-maximizing allocation, in exact integers.

    With D = ``weights.scale``, agent i's value table times A_i = a_i * D
    (``weights.scaled``) is integral, and each allocation's total over these
    tables is D times its weighted welfare, so they rank allocations exactly.
    Without a preference, ``solve_optimal``'s subset DP maximizes them in
    O((n-1) * 3**m).  With one, every one of the (n+1)**m allocations is
    scored, with preference values reused while the same weights object is
    solved repeatedly (see ``AffineWeights``).  Either way ties break to the
    lexicographically smallest encoding, and the (n+1)**m budget applies.

    Raises:
        BudgetExceededError: if (n+1)**m exceeds ``DEFAULT_WD_BUDGET``.
        ValueError: if the weights' arity is not n, or if some allocation's
            weighted welfare is not an integer number of micro-units.
    """
    n, m = profile.num_agents, profile.num_items
    if (n + 1) ** m > DEFAULT_WD_BUDGET:
        raise BudgetExceededError(f"weighted winner determination needs "
                                  f"{(n + 1) ** m} allocations, budget is {DEFAULT_WD_BUDGET}")
    if weights.num_agents != n:
        raise ValueError("weight arity does not match the number of agents")
    scale = weights.scale
    tables = tuple(tuple(x * a for x in value_table(v))
                   for a, v in zip(weights.scaled, profile.valuations))
    # one inline remainder test per entry, since a call each would cost more; exact_div raises
    if weights.preference is None:
        # value(empty) = 0, so some total is off the grid iff some single term is
        for entry in itertools.chain.from_iterable(tables):
            if entry % scale:
                exact_div(entry, scale, "weighted welfare")
        return _smallest_optimum(tables, 1 << m)
    allocations, columns, totals = _preference_pass(weights, m)
    for table, column in zip(tables, columns):
        totals = list(map(add, totals, map(table.__getitem__, column)))
    for total in totals:
        if total % scale:
            exact_div(total, scale, "weighted welfare")
    best = max(totals)
    return min((a for a, total in zip(allocations, totals) if total == best),
               key=attrgetter("bundles"))


def affine_optimal_algorithm(weights: AffineWeights) -> AllocationAlgorithm:
    return AllocationAlgorithm("affine_optimal", EXACT, lambda p: solve_optimal_weighted(weights, p))


def optimal_algorithm() -> AllocationAlgorithm:
    # looks ``solve_optimal`` up at call time, so a wrapped module name takes effect
    return AllocationAlgorithm("optimal", EXACT, lambda p: solve_optimal(p))


def single_winner_algorithm() -> AllocationAlgorithm:
    return AllocationAlgorithm("single_winner", MAXIMAL_IN_RANGE, solve_single_winner)


def greedy_algorithm() -> AllocationAlgorithm:
    return AllocationAlgorithm("greedy", HEURISTIC, solve_greedy)


def in_range_algorithm(allocation_range: AllocationRange) -> AllocationAlgorithm:
    return AllocationAlgorithm(
        "in_range", MAXIMAL_IN_RANGE, lambda p: solve_in_range(p, allocation_range)
    )


def verify_maximal_in_range(
    alg: AllocationAlgorithm, profiles: Sequence[TypeProfile]
) -> RangeViolation | None:
    """Check range-optimality of ``alg`` over a finite profile grid.

    Computes the realized range of the algorithm over the grid, then verifies
    that every grid profile's output attains the maximum welfare over that
    range.  Returns the first violation in grid order, or None.
    """
    profiles = list(profiles)
    outputs = [alg(p) for p in profiles]
    realized = dict.fromkeys(outputs)
    for profile, out in zip(profiles, outputs):
        achieved = welfare(profile, out)
        for candidate in realized:
            if welfare(profile, candidate) > achieved:
                return RangeViolation(profile, out, candidate)
    return None


def _desires(valuation, item: int) -> bool:
    """True if the item strictly increases the valuation in some context.

    Under free disposal an agent either desires an item in at least one
    context or is indifferent to it in every context.
    """
    table = value_table(valuation)
    bit = 1 << item
    for mask in range(len(table)):
        if mask & bit:
            continue
        if table[mask | bit] > table[mask]:
            return True
    return False


def check_reasonable(alg: AllocationAlgorithm, profile: TypeProfile) -> ReasonablenessWitness | None:
    """Find an item desired by exactly one agent that the algorithm withheld.

    For each item, the set of agents who desire it is computed; when that set
    is a single agent, the algorithm's allocation must hand the item to this
    agent.  Items are scanned in ascending order and the first violation is
    returned, or None if every solely-desired item is correctly allocated.
    """
    alloc = alg(profile)
    for item in range(profile.num_items):
        desiring = [i for i in range(profile.num_agents) if _desires(profile[i], item)]
        if len(desiring) != 1:
            continue
        agent = desiring[0]
        if not alloc.bundles[agent] >> item & 1:
            return ReasonablenessWitness(item, agent, profile, alloc)
    return None


def profile_from_partition(partition: Allocation, *, num_items: int | None = None) -> TypeProfile:
    """Unit single-minded bids, one per partition bundle.

    Each agent i wants exactly its bundle of the partition, for one currency
    unit; no two agents want the same item.  The welfare-optimal allocation
    of the resulting profile is exactly the partition.
    """
    if any(b == 0 for b in partition.bundles):
        raise ValueError("partition bundles must be non-empty")
    m = num_items if num_items is not None else partition.union().bit_length()
    if not partition.within_universe(m):
        raise ValueError("partition uses items outside the requested universe")
    return TypeProfile(
        tuple(SingleMindedValuation(m, b, units(1)) for b in partition.bundles)
    )


def iter_partitions(num_items: int) -> Iterable[Allocation]:
    """All set partitions of the item universe, each part becoming one agent.

    Parts are ordered by their smallest item, which makes the enumeration
    deterministic.
    """

    def rec(item: int, parts: list[int]):
        if item == num_items:
            yield Allocation(tuple(parts))
            return
        bit = 1 << item
        for k in range(len(parts)):
            parts[k] |= bit
            yield from rec(item + 1, parts)
            parts[k] ^= bit
        parts.append(bit)
        yield from rec(item + 1, parts)
        parts.pop()

    yield from rec(0, [])
