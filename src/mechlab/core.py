"""Domain types and welfare arithmetic shared by all mechanisms.

Money is carried as plain Python ints denominated in micro-units
(1 currency unit = 10**6 micro-units), so every welfare sum and payment
is exact and comparisons are total.  Item bundles are bitmasks over the
item universe {0 .. m-1}; bundle bit j set means item j is in the bundle.
All types here are immutable values and all operations are pure.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Callable, Iterable, Sequence

Money = int
Bundle = int

UNIT = 1_000_000  # micro-units per currency unit

MAX_ITEMS = 20


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive computation would exceed its configured budget."""


def units(amount: int) -> Money:
    """Whole currency units expressed in micro-units."""
    return amount * UNIT


def full_bundle(num_items: int) -> Bundle:
    return (1 << num_items) - 1


def _check_universe(num_items: int) -> None:
    if not 1 <= num_items <= MAX_ITEMS:
        raise ValueError(f"item count must be in 1..{MAX_ITEMS}, got {num_items}")


def _check_money(amounts: Iterable[object], negative: str = "") -> None:
    """TypeError unless every amount is an int; ValueError(``negative``), if given, on one < 0."""
    for amount in amounts:
        if not isinstance(amount, int):
            raise TypeError(f"money must be an int number of micro-units, got {amount!r}")
        if negative and amount < 0:
            raise ValueError(negative)


class Valuation(ABC):
    """A monotone, normalized bundle-value map over subsets of the item universe.

    Every valuation constructed through the public surface satisfies
    value(0) == 0, value(s) >= 0, and free disposal: s <= t (as sets)
    implies value(s) <= value(t).
    """

    @property
    @abstractmethod
    def num_items(self) -> int: ...

    @abstractmethod
    def value(self, bundle: Bundle) -> Money:
        """Exact worth of ``bundle`` in micro-units."""

    @abstractmethod
    def atoms(self) -> tuple[tuple[Bundle, Money], ...]:
        """Positive-value atomic bids (bundle, value) for greedy-style algorithms.

        Interpreted with XOR semantics: the valuation of a bundle is at least
        the best atom it contains, and a bidder can be served at most one atom.
        """

    def _check_bundle(self, bundle: Bundle) -> None:
        if bundle < 0 or bundle >> self.num_items:
            raise ValueError(f"bundle {bundle:#x} outside universe of {self.num_items} items")


@functools.lru_cache(maxsize=65536)
def value_table(valuation: Valuation) -> tuple[Money, ...]:
    """Values of all 2**m bundles, indexed by bundle mask."""
    return tuple(valuation.value(s) for s in range(1 << valuation.num_items))


@dataclass(frozen=True)
class TableValuation(Valuation):
    """Explicit 2**m value table, indexed by bundle mask.

    The constructor rejects tables that are not already monotone; use
    :func:`monotone_closure` to repair raw user input.
    """

    values: tuple[Money, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        if n < 2 or n & (n - 1):
            raise ValueError(f"table length must be a power of two >= 2, got {n}")
        _check_universe(self.num_items)
        if self.values[0] != 0:
            raise ValueError("empty bundle must have value 0")
        _check_money(self.values, "bundle values must be non-negative")
        # the first mask the closure lifts is the first with a larger one-item-smaller subset
        for mask, (value, closed) in enumerate(zip(self.values, _closure(self.values))):
            if value != closed:
                raise ValueError(f"table violates free disposal at bundle {mask:#x}")

    @property
    def num_items(self) -> int:
        return len(self.values).bit_length() - 1

    def value(self, bundle: Bundle) -> Money:
        self._check_bundle(bundle)
        return self.values[bundle]

    def atoms(self) -> tuple[tuple[Bundle, Money], ...]:
        return tuple((mask, v) for mask, v in enumerate(self.values) if v > 0)


@dataclass(frozen=True)
class AdditiveValuation(Valuation):
    """Sum of per-item values over the bundle."""

    item_values: tuple[Money, ...]

    def __post_init__(self) -> None:
        _check_universe(len(self.item_values))
        _check_money(self.item_values, "item values must be non-negative")

    @property
    def num_items(self) -> int:
        return len(self.item_values)

    def value(self, bundle: Bundle) -> Money:
        self._check_bundle(bundle)
        return sum(v for j, v in enumerate(self.item_values) if bundle >> j & 1)

    def atoms(self) -> tuple[tuple[Bundle, Money], ...]:
        return tuple((1 << j, v) for j, v in enumerate(self.item_values) if v > 0)


@dataclass(frozen=True)
class XorValuation(Valuation):
    """Best contained atomic bid: value(s) = max over bids (b, x) with b <= s, else 0."""

    items: int
    bids: tuple[tuple[Bundle, Money], ...]

    def __post_init__(self) -> None:
        _check_universe(self.items)
        if any(bundle <= 0 or bundle >> self.items for bundle, _ in self.bids):
            raise ValueError("atomic bids must be on non-empty bundles within the universe")
        _check_money((val for _, val in self.bids), "bid values must be non-negative")

    @property
    def num_items(self) -> int:
        return self.items

    def value(self, bundle: Bundle) -> Money:
        self._check_bundle(bundle)
        best = 0
        for b, val in self.bids:
            if bundle & b == b and val > best:
                best = val
        return best

    def atoms(self) -> tuple[tuple[Bundle, Money], ...]:
        return tuple((b, v) for b, v in self.bids if v > 0)


class SingleMindedValuation(XorValuation):
    """Worth ``desired_value`` for any bundle containing ``desired_bundle``, else 0.

    The XOR valuation with that one bid (none for the empty bundle), yet never
    equal to an ``XorValuation``: the inherited dataclass equality compares classes.
    """

    def __init__(self, items: int, desired_bundle: Bundle, desired_value: Money) -> None:
        if desired_bundle == 0 and desired_value != 0:
            raise ValueError("empty desired bundle requires value 0")
        super().__init__(items, ((desired_bundle, desired_value),) if desired_bundle else ())


def _closure(table: Sequence[Money]) -> list[Money]:
    """closed(s) = max over t <= s of table(t), from each mask's one-item-smaller subsets."""
    closed = list(table)
    for mask in range(1, len(closed)):
        for j in range(mask.bit_length()):
            if mask >> j & 1 and closed[mask ^ (1 << j)] > closed[mask]:
                closed[mask] = closed[mask ^ (1 << j)]
    return closed


def monotone_closure(raw_table: Iterable[Money]) -> TableValuation:
    """Monotone-close a raw 2**m value table into a valid valuation.

    Returns the pointwise-smallest free-disposal table dominating the input:
    closed(s) = max over t <= s of raw(t).  Idempotent on already-monotone
    tables.  Rejects negative entries and a non-zero empty-bundle entry.
    """
    raw = tuple(raw_table)
    # checked before closing, which could lift a negative entry; TableValuation checks the rest
    _check_money(raw, "bundle values must be non-negative")
    return TableValuation(tuple(_closure(raw)))


def zero_valuation(num_items: int) -> Valuation:
    """The lowest possible type: worth nothing on every bundle."""
    _check_universe(num_items)
    return AdditiveValuation((0,) * num_items)


@dataclass(frozen=True)
class Allocation:
    """Disjoint bundles assigned to agents; bundles[i] is agent i's bundle."""

    bundles: tuple[Bundle, ...]

    def __post_init__(self) -> None:
        if not self.bundles:
            raise ValueError("allocation needs at least one agent")
        seen = 0
        for b in self.bundles:
            if b < 0:
                raise ValueError("bundle masks must be non-negative")
            if seen & b:
                raise ValueError("allocation bundles must be pairwise disjoint")
            seen |= b

    @property
    def num_agents(self) -> int:
        return len(self.bundles)

    def union(self) -> Bundle:
        mask = 0
        for b in self.bundles:
            mask |= b
        return mask

    def within_universe(self, num_items: int) -> bool:
        return self.union() >> num_items == 0


@dataclass(frozen=True)
class TypeProfile:
    """A vector of valuations, one per agent, over a shared item universe."""

    valuations: tuple[Valuation, ...]

    def __post_init__(self) -> None:
        if not self.valuations:
            raise ValueError("profile needs at least one agent")
        m = self.valuations[0].num_items
        if any(v.num_items != m for v in self.valuations):
            raise ValueError("all valuations must share the same item universe")

    @property
    def num_agents(self) -> int:
        return len(self.valuations)

    @property
    def num_items(self) -> int:
        return self.valuations[0].num_items

    def __getitem__(self, agent: int) -> Valuation:
        return self.valuations[agent]

    def replace(self, agent: int, valuation: Valuation) -> "TypeProfile":
        """New profile with ``agent``'s valuation swapped out."""
        if agent not in range(self.num_agents):
            raise IndexError(f"agent {agent} is not in a profile of {self.num_agents} agents")
        if valuation.num_items != self.num_items:
            raise ValueError("replacement valuation has a different item universe")
        vals = list(self.valuations)
        vals[agent] = valuation
        return TypeProfile(tuple(vals))


def _check_alloc(profile: TypeProfile, alloc: Allocation) -> None:
    if alloc.num_agents != profile.num_agents:
        raise ValueError(
            f"allocation covers {alloc.num_agents} agents, profile has {profile.num_agents}"
        )
    if not alloc.within_universe(profile.num_items):
        raise ValueError("allocation uses items outside the profile's universe")


def welfare(profile: TypeProfile, alloc: Allocation) -> Money:
    """Total declared welfare of an allocation: sum of each agent's bundle value."""
    _check_alloc(profile, alloc)
    return sum(v.value(b) for v, b in zip(profile.valuations, alloc.bundles))


def exact_div(numerator: int, denominator: int, what: str) -> Money:
    """``numerator / denominator`` in micro-units; a remainder raises, never rounds."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ValueError(f"{what} of {Fraction(numerator, denominator)} "
                         "is not an integer number of micro-units")
    return quotient


@dataclass(frozen=True)
class AffineWeights:
    """Affine transformation of welfare: a0(alloc) + sum_i a_i * v_i(bundle_i).

    ``agent_weights`` are strictly positive rationals; ``preference`` is the
    mechanism's own valuation over allocations (None means identically zero).
    It must be a pure function of the allocation: the exact affine solver
    calls it once per allocation, reusing the values only while the same
    weights object is solved repeatedly.

    Derived once, outside equality and hashing: ``scale`` is D, the LCM of the
    weights' denominators, and ``scaled`` the integers A_i = a_i * D.
    """

    agent_weights: tuple[Fraction, ...]
    preference: Callable[[Allocation], Money] | None = None
    scale: int = field(init=False, repr=False, compare=False)
    scaled: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.agent_weights:
            raise ValueError("need at least one agent weight")
        if not all(isinstance(a, Rational) for a in self.agent_weights):
            raise TypeError("agent weights must be rationals, such as int or Fraction")
        if any(a <= 0 for a in self.agent_weights):
            raise ValueError("agent weights must be strictly positive")
        scale = math.lcm(*(a.denominator for a in self.agent_weights))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "scaled", tuple(int(a * scale) for a in self.agent_weights))

    @property
    def num_agents(self) -> int:
        return len(self.agent_weights)

    def preference_value(self, alloc: Allocation) -> Money:
        return 0 if self.preference is None else self.preference(alloc)


def _scaled_values(weights: AffineWeights, profile: TypeProfile, alloc: Allocation) -> list[Money]:
    """The affine terms [A_i * v_i(bundle_i)] of ``alloc`` under ``profile``, or ValueError."""
    if weights.num_agents != profile.num_agents:
        raise ValueError("weight arity does not match the number of agents")
    _check_alloc(profile, alloc)
    return [a * v.value(b) for a, v, b in zip(weights.scaled, profile.valuations, alloc.bundles)]


def weighted_welfare(weights: AffineWeights, profile: TypeProfile, alloc: Allocation) -> Money:
    """Exact weighted welfare in micro-units, (D * a0 + sum_i A_i * v_i) / D, or ValueError."""
    terms = _scaled_values(weights, profile, alloc)
    total = weights.scale * weights.preference_value(alloc) + sum(terms)
    return exact_div(total, weights.scale, "weighted welfare")
