"""Payment rules (VCG-based, Clarke pivots, affine-based) and utility accounting.

Sign convention throughout: payments are mechanism-to-agent, so ``p[i] <= 0``
means agent i pays.  An agent's utility against its true type is
``true_value(bundle_i) + p[i]``; for VCG-based mechanisms this always equals
the total welfare of the chosen allocation measured with the agent's true
valuation substituted in, plus the agent's pivot term.  That identity is the
lever behind every strategic analysis in this package, so both computation
paths are exposed and cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import (
    AffineWeights,
    Allocation,
    Money,
    TypeProfile,
    Valuation,
    welfare,
    zero_valuation,
)
from .wd import AllocationAlgorithm, excluded_optima


@dataclass(frozen=True)
class PivotRule:
    """Per-agent pivot term h_i, a function of the opponents' declarations only.

    Implementations replace agent i's declaration with the lowest (zero)
    type, or leave agent i out, before touching the profile, so the rule
    cannot depend on the agent's own report.
    """

    name: str
    fn: Callable[[int, TypeProfile], Money]

    def __call__(self, agent: int, declared: TypeProfile) -> Money:
        return self.fn(agent, declared)


def zero_pivot() -> PivotRule:
    return PivotRule("zero", lambda agent, declared: 0)


def clarke_pivot(alg: AllocationAlgorithm) -> PivotRule:
    """Charge each agent the welfare the others could get without it.

    h_i = -g((0_i, w_-i), alg((0_i, w_-i))).  With the exact solver this is
    the classic Clarke pivot; with the mechanism's own suboptimal algorithm
    it is the variant that keeps participation individually rational.  Each
    call runs ``alg`` once; ``make_pivot("clarke_exact")`` computes the values
    of ``clarke_pivot(optimal_algorithm())`` for all agents at once.
    """

    def fn(agent: int, declared: TypeProfile) -> Money:
        lowered = declared.replace(agent, zero_valuation(declared.num_items))
        return -welfare(lowered, alg(lowered))

    return PivotRule(f"clarke({alg.name})", fn)


def _clarke_exact(agent: int, declared: TypeProfile) -> Money:
    if agent not in range(declared.num_agents):
        raise IndexError(f"agent {agent} is not in a profile of {declared.num_agents} agents")
    return -excluded_optima(declared)[agent]


def make_pivot(name: str) -> PivotRule:
    """Resolve the exact Clarke pivot by the name the benchmark uses, ``clarke_exact``.

    It computes every agent's pivot at once, with
    :func:`mechlab.wd.excluded_optima`, which keeps them for the last profile.
    """
    if name == "clarke_exact":
        return PivotRule("clarke_exact", _clarke_exact)
    raise ValueError(f"unknown pivot rule {name!r}")


@dataclass(frozen=True)
class MechanismOutcome:
    """Chosen allocation, mechanism-to-agent payments, and true-type utilities."""

    allocation: Allocation
    payments: tuple[Money, ...]
    utilities: tuple[Money, ...]


def vcg_outcome(
    alloc: Allocation, declared: TypeProfile, pivot: PivotRule, true_types: TypeProfile
) -> MechanismOutcome:
    """VCG accounting at a chosen allocation.

    p_i is the sum of the others' declared values at ``alloc`` plus the pivot
    term, with pivots evaluated in agent order; utilities are accounted
    against ``true_types``.
    """
    if true_types.num_agents != declared.num_agents:
        raise ValueError("true-type arity does not match declarations")
    own = [v.value(b) for v, b in zip(declared.valuations, alloc.bundles)]
    total = sum(own)
    payments = tuple(total - own[i] + pivot(i, declared) for i in range(declared.num_agents))
    utilities = tuple(
        v.value(b) + p for v, b, p in zip(true_types.valuations, alloc.bundles, payments)
    )
    return MechanismOutcome(alloc, payments, utilities)


def affine_based_payments(
    alg: AllocationAlgorithm,
    declared: TypeProfile,
    weights: AffineWeights,
    pivot: PivotRule,
) -> tuple[Money, ...]:
    """p_i = (sum_{j != i} a_j * w_j(alg(w)) + h_i) / a_i, exactly.

    The mechanism's own preference term participates only in allocation
    choice, never in payments.  A division that leaves the integer
    micro-unit grid is rejected.
    """
    if weights.num_agents != declared.num_agents:
        raise ValueError("weight arity does not match the number of agents")
    alloc = alg(declared)
    payments = []
    for i in range(declared.num_agents):
        total = Fraction(pivot(i, declared))
        for j in range(declared.num_agents):
            if j != i:
                total += weights.agent_weights[j] * declared[j].value(alloc.bundles[j])
        share = total / weights.agent_weights[i]
        if share.denominator != 1:
            raise ValueError(
                f"payment for agent {i} is {share} micro-units; weights do not divide exactly"
            )
        payments.append(int(share))
    return tuple(payments)


def utility_of(
    true_valuation: Valuation,
    agent: int,
    declared: TypeProfile,
    alg: AllocationAlgorithm,
    pivot: PivotRule,
) -> Money:
    """Agent utility via the welfare identity.

    Equals the total welfare of alg(w) measured with the agent's true
    valuation in place of its declaration, plus the pivot term; always
    identical to value-plus-payment computed directly.
    """
    belief = declared.replace(agent, true_valuation)
    alloc = alg(declared)
    return welfare(belief, alloc) + pivot(agent, declared)


def affine_utility_of(
    true_valuation: Valuation,
    agent: int,
    declared: TypeProfile,
    alg: AllocationAlgorithm,
    weights: AffineWeights,
    pivot: PivotRule,
) -> Money:
    """Affine analogue of :func:`utility_of`: (sum_j a_j * value_j + h_i) / a_i.

    The sum runs over agents only (true valuation substituted for agent i);
    the mechanism's preference term does not enter utilities.
    """
    belief = declared.replace(agent, true_valuation)
    alloc = alg(declared)
    total = Fraction(pivot(agent, declared))
    for j in range(declared.num_agents):
        total += weights.agent_weights[j] * belief[j].value(alloc.bundles[j])
    share = total / weights.agent_weights[agent]
    if share.denominator != 1:
        raise ValueError(f"utility {share} is not an integer number of micro-units")
    return int(share)


def run_vcg_based(
    alg: AllocationAlgorithm,
    declared: TypeProfile,
    pivot: PivotRule,
    true_types: TypeProfile,
) -> MechanismOutcome:
    """Run allocation + payments and account utilities against the true types."""
    return vcg_outcome(alg(declared), declared, pivot, true_types)
