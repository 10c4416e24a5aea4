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

import functools
from dataclasses import dataclass
from typing import Callable

from .core import (AffineWeights, Allocation, Money, TypeProfile, Valuation, _scaled_values,
                   exact_div, welfare, zero_valuation)
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


@functools.cache
def _unit_weights(num_agents: int) -> AffineWeights:
    return AffineWeights((1,) * num_agents)


@dataclass(frozen=True)
class MechanismOutcome:
    """Chosen allocation, mechanism-to-agent payments, and true-type utilities."""

    allocation: Allocation
    payments: tuple[Money, ...]
    utilities: tuple[Money, ...]


def _affine_outcome(alloc: Allocation, declared: TypeProfile, weights: AffineWeights,
                    pivot: PivotRule, true_types: TypeProfile) -> MechanismOutcome:
    """Affine accounting at ``alloc``: p_i = (sum_{j != i} A_j * w_j + D * h_i) / A_i.

    D and A_j = a_j * D are ``weights.scale`` and ``weights.scaled``; pivots run
    in agent order, and utilities are accounted against ``true_types``.
    """
    own = _scaled_values(weights, declared, alloc)
    if true_types.num_agents != declared.num_agents:
        raise ValueError("true-type arity does not match declarations")
    total = sum(own)
    payments = tuple(exact_div(total - own[i] + weights.scale * pivot(i, declared),
                               weights.scaled[i], f"payment to agent {i}")
                     for i in range(declared.num_agents))
    utilities = tuple(
        v.value(b) + p for v, b, p in zip(true_types.valuations, alloc.bundles, payments))
    return MechanismOutcome(alloc, payments, utilities)


def vcg_outcome(
    alloc: Allocation, declared: TypeProfile, pivot: PivotRule, true_types: TypeProfile
) -> MechanismOutcome:
    """VCG accounting at ``alloc``, the unit-weight affine case.

    p_i is the sum of the others' declared values plus the pivot term.
    """
    return _affine_outcome(alloc, declared, _unit_weights(declared.num_agents), pivot, true_types)


def affine_based_payments(
    alg: AllocationAlgorithm,
    declared: TypeProfile,
    weights: AffineWeights,
    pivot: PivotRule,
) -> tuple[Money, ...]:
    """p_i = (sum_{j != i} a_j * w_j(alg(w)) + h_i) / a_i, exactly, or ValueError.

    The preference term γ is left out, a truthfulness defect (ROADMAP item 6:
    the Roberts payment adds γ(alg(w))); fixing it re-records the
    ``affine_enum`` digests.
    """
    return _affine_outcome(alg(declared), declared, weights, pivot, declared).payments


def utility_of(
    true_valuation: Valuation,
    agent: int,
    declared: TypeProfile,
    alg: AllocationAlgorithm,
    pivot: PivotRule,
) -> Money:
    """Agent utility via the welfare identity, the unit-weight :func:`affine_utility_of`.

    The welfare of alg(w) with the agent's true valuation in place of its
    declaration, plus the pivot term: value-plus-payment, computed apart.
    """
    return affine_utility_of(true_valuation, agent, declared, alg,
                             _unit_weights(declared.num_agents), pivot)


def affine_utility_of(
    true_valuation: Valuation,
    agent: int,
    declared: TypeProfile,
    alg: AllocationAlgorithm,
    weights: AffineWeights,
    pivot: PivotRule,
) -> Money:
    """Affine analogue of :func:`utility_of`: (sum_j A_j * value_j + D * h_i) / A_i.

    Agent i's true valuation replaces its declaration, and payments are never
    read, so this cross-checks them.  It leaves out γ as well (ROADMAP item 6).
    """
    belief = declared.replace(agent, true_valuation)
    terms = _scaled_values(weights, belief, alg(declared))
    total = weights.scale * pivot(agent, declared) + sum(terms)
    return exact_div(total, weights.scaled[agent], "utility")


def run_vcg_based(
    alg: AllocationAlgorithm,
    declared: TypeProfile,
    pivot: PivotRule,
    true_types: TypeProfile,
) -> MechanismOutcome:
    """Run allocation + payments and account utilities against the true types."""
    return vcg_outcome(alg(declared), declared, pivot, true_types)
