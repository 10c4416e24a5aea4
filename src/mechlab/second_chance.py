"""The second-chance mechanism: metered appeals and feasibly dominant actions.

Alongside its declaration, each agent submits an *appeal*: a deterministic,
metered, partial transformation of the declared profile.  The mechanism runs
the allocation algorithm on the declarations and on every appeal suggestion,
then keeps the candidate with the highest declared welfare.  Appeals are
evaluated under a step meter so that a published time limit is enforceable:
one step per valuation evaluation and one step per allocation-algorithm
invocation incurred by the appeal.  For budget arithmetic, scoring one
candidate output therefore costs ``1 + n`` steps (one invocation plus one
evaluation per agent); that conversion is what the step-cost helpers below
encode.

An appeal that runs out of budget, raises, or produces a malformed profile
simply degrades to a decline: the mechanism behaves as if it were absent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Sequence

from .core import Allocation, Money, TypeProfile, Valuation, welfare, zero_valuation
from .payments import MechanismOutcome, PivotRule, clarke_pivot, vcg_outcome
from .wd import AllocationAlgorithm


class StepLimitExceeded(Exception):
    """An appeal tried to compute past its step budget."""


@dataclass
class StepMeter:
    """Step accounting for one appeal evaluation; consumed never exceeds budget."""

    budget: int
    consumed: int = 0

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("step budget must be non-negative")

    def charge(self, steps: int = 1) -> None:
        if self.consumed + steps > self.budget:
            raise StepLimitExceeded(f"needs {steps} more steps, {self.budget - self.consumed} left")
        self.consumed += steps


def algorithm_step_cost(num_agents: int) -> int:
    """Steps to invoke the allocation algorithm once and score its output."""
    return 1 + num_agents


def charged_algorithm(alg: AllocationAlgorithm, profile: TypeProfile, meter: StepMeter) -> Allocation:
    meter.charge(1)
    return alg(profile)


def charged_welfare(profile: TypeProfile, alloc: Allocation, meter: StepMeter) -> Money:
    meter.charge(profile.num_agents)
    return welfare(profile, alloc)


class Appeal(ABC):
    """A deterministic, metered, partial map from declared profiles to profiles.

    ``transform`` returns None when the input is outside the appeal's domain
    (a decline); the mechanism treats budget exhaustion the same way.
    """

    @abstractmethod
    def transform(self, profile: TypeProfile, meter: StepMeter) -> TypeProfile | None: ...

    @abstractmethod
    def step_bound(self, num_agents: int) -> int:
        """Static worst-case step cost on any profile with ``num_agents`` agents."""


def _shaped_like(result: object, template: TypeProfile) -> bool:
    return (
        isinstance(result, TypeProfile)
        and result.num_agents == template.num_agents
        and result.num_items == template.num_items
    )


def _best_suggestion(
    suggestions: Iterable[TypeProfile | None],
    template: TypeProfile,
    alg: AllocationAlgorithm,
    belief: TypeProfile,
    meter: StepMeter,
) -> TypeProfile | None:
    """The suggestion whose output scores best under ``belief``; earliest on ties.

    Declines and suggestions shaped unlike ``template`` are skipped; each
    survivor costs one charged algorithm run and one charged scoring.  The
    suggestions are drawn lazily, so an appeal producing one is charged right
    before that suggestion is scored.  None if no suggestion survives.
    """
    return max(
        (s for s in suggestions if s is not None and _shaped_like(s, template)),
        key=lambda s: charged_welfare(belief, charged_algorithm(alg, s, meter), meter),
        default=None,
    )


@dataclass(frozen=True)
class Decline(Appeal):
    """The empty appeal: declines on every input."""

    def transform(self, profile: TypeProfile, meter: StepMeter) -> TypeProfile | None:
        return None

    def step_bound(self, num_agents: int) -> int:
        return 0


DECLINE = Decline()


@dataclass(frozen=True)
class ReplaceOwn(Appeal):
    """Swap one agent's declaration for a fixed alternative."""

    agent: int
    valuation: Valuation

    def transform(self, profile: TypeProfile, meter: StepMeter) -> TypeProfile | None:
        if not 0 <= self.agent < profile.num_agents:
            return None
        if self.valuation.num_items != profile.num_items:
            return None
        return profile.replace(self.agent, self.valuation)

    def step_bound(self, num_agents: int) -> int:
        return 0


@dataclass(frozen=True)
class ReplaceProfile(Appeal):
    """Suggest one fixed profile regardless of the input."""

    profile: TypeProfile

    def transform(self, profile: TypeProfile, meter: StepMeter) -> TypeProfile | None:
        if not _shaped_like(self.profile, profile):
            return None
        return self.profile

    def step_bound(self, num_agents: int) -> int:
        return 0


@dataclass(frozen=True)
class TableLookup(Appeal):
    """Finite explicit map of declared profiles to suggested profiles."""

    entries: tuple[tuple[TypeProfile, TypeProfile], ...]

    def __post_init__(self) -> None:
        for key, out in self.entries:
            if not _shaped_like(out, key):
                raise ValueError("lookup outputs must match their key's arity and universe")

    def transform(self, profile: TypeProfile, meter: StepMeter) -> TypeProfile | None:
        for key, out in self.entries:
            if key == profile:
                return out
        return None

    def step_bound(self, num_agents: int) -> int:
        return 0


@dataclass(frozen=True)
class BestOf(Appeal):
    """Try several sub-appeals and keep the suggestion whose output scores best.

    Each surviving suggestion is scored by running ``algorithm`` on it and
    evaluating the resulting allocation under ``scored_by`` (typically the
    submitting agent's belief about the true types).  Ties keep the earliest
    sub-appeal; if every sub-appeal declines, so does this one.
    """

    appeals: tuple[Appeal, ...]
    scored_by: TypeProfile
    algorithm: AllocationAlgorithm

    def transform(self, profile: TypeProfile, meter: StepMeter) -> TypeProfile | None:
        if not _shaped_like(self.scored_by, profile):
            return None
        return _best_suggestion(
            (sub.transform(profile, meter) for sub in self.appeals),
            profile, self.algorithm, self.scored_by, meter,
        )

    def step_bound(self, num_agents: int) -> int:
        inner = sum(sub.step_bound(num_agents) for sub in self.appeals)
        return inner + len(self.appeals) * algorithm_step_cost(num_agents)


@dataclass(frozen=True)
class Composed(Appeal):
    """Host-supplied transformation run under the meter.

    The callback must do all of its algorithm invocations and valuation
    evaluations through :func:`charged_algorithm` / :func:`charged_welfare`
    (or charge the meter itself) and declare an honest worst-case bound.
    """

    fn: Callable[[TypeProfile, StepMeter], TypeProfile | None]
    bound_fn: Callable[[int], int]

    def transform(self, profile: TypeProfile, meter: StepMeter) -> TypeProfile | None:
        return self.fn(profile, meter)

    def step_bound(self, num_agents: int) -> int:
        return self.bound_fn(num_agents)


@dataclass(frozen=True)
class Action:
    """One agent's submission: a type declaration plus an appeal."""

    declaration: Valuation
    appeal: Appeal = DECLINE


def truthful_actions(profile: TypeProfile, appeals: Sequence[Appeal] | None = None) -> tuple[Action, ...]:
    """Actions declaring the given profile truthfully, with optional appeals."""
    if appeals is None:
        appeals = [DECLINE] * profile.num_agents
    if len(appeals) != profile.num_agents:
        raise ValueError("one appeal per agent required")
    return tuple(Action(v, a) for v, a in zip(profile.valuations, appeals))


def evaluate_appeal(
    appeal: Appeal, profile: TypeProfile, time_limit: int
) -> tuple[TypeProfile | None, int]:
    """Run one appeal under a fresh meter.

    Returns the suggested profile (None for a decline) and the steps
    consumed.  Budget exhaustion, malformed output, and any exception the
    appeal raises all degrade to a decline.
    """
    meter = StepMeter(time_limit)
    try:
        result = appeal.transform(profile, meter)
    except StepLimitExceeded:
        return None, meter.consumed
    except Exception:
        return None, meter.consumed
    if result is not None and not _shaped_like(result, profile):
        return None, meter.consumed
    return result, meter.consumed


def run_second_chance(
    alg: AllocationAlgorithm,
    actions: Sequence[Action],
    pivot: PivotRule,
    time_limit: int,
    true_types: TypeProfile,
) -> MechanismOutcome:
    """Run the mechanism: declarations plus one metered appeal per agent.

    Candidates are the algorithm's output on the declared profile followed by
    its outputs on each appeal suggestion, in agent order; the candidate with
    the highest declared welfare wins, earliest candidate on ties.  Payments
    follow the VCG formula at the chosen output; utilities are accounted
    against ``true_types``.
    """
    declared = TypeProfile(tuple(a.declaration for a in actions))
    candidates = [alg(declared)]
    for action in actions:
        suggestion, _ = evaluate_appeal(action.appeal, declared, time_limit)
        if suggestion is not None:
            candidates.append(alg(suggestion))
    chosen = max(candidates, key=lambda a: welfare(declared, a))
    return vcg_outcome(chosen, declared, pivot, true_types)


@dataclass
class RevisionFunction:
    """A finite, explicit partial map from opponent action vectors to own actions.

    Captures everything an agent knows about how it would change its action
    if it saw the others' submissions first; vectors outside the domain mean
    "stick with what I chose".
    """

    entries: tuple[tuple[tuple[Action, ...], Action], ...]
    _lookup: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._lookup = {key: value for key, value in self.entries}
        if len(self._lookup) != len(self.entries):
            raise ValueError("revision function domain has duplicate keys")

    def domain(self) -> tuple[tuple[Action, ...], ...]:
        return tuple(key for key, _ in self.entries)

    def get(self, opponents: tuple[Action, ...]) -> Action | None:
        return self._lookup.get(opponents)

    def is_appeal_independent(self) -> bool:
        """True when every domain vector carries only empty appeals."""
        return all(
            action.appeal == DECLINE for key, _ in self.entries for action in key
        )

    def appeal_family(self) -> tuple[Appeal, ...]:
        """Every non-empty appeal appearing in the domain or the range, deduplicated.

        Domain appeals come first, then range appeals, in entry order; empty
        appeals are dropped since they can never contribute a candidate.
        """
        family: list[Appeal] = []
        seen: set[Appeal] = set()

        def add(appeal: Appeal) -> None:
            if appeal != DECLINE and appeal not in seen:
                seen.add(appeal)
                family.append(appeal)

        for key, _ in self.entries:
            for action in key:
                add(action.appeal)
        for _, value in self.entries:
            add(value.appeal)
        return tuple(family)


def check_step_limited(revision: RevisionFunction, bound_per_appeal: int,
                       max_family: int, num_agents: int) -> bool:
    """Explicit-family boundedness: family size and per-appeal step bounds."""
    family = revision.appeal_family()
    if len(family) > max_family:
        return False
    return all(a.step_bound(num_agents) <= bound_per_appeal for a in family)


def build_feasibly_truthful_appeal(
    agent: int,
    true_valuation: Valuation,
    revision: RevisionFunction,
    alg: AllocationAlgorithm,
) -> Appeal:
    """The simulation appeal that makes truth-telling safe for this agent.

    Requires an appeal-independent revision function.  On a declared profile
    w, the appeal looks up what the agent would have played against the bare
    opponent declarations; it then compares the algorithm's output on the
    revised profile against the output on that profile further transformed by
    the looked-up appeal, scoring both with the agent's true valuation
    substituted in, and suggests whichever input profile scored higher
    (the revised profile on ties).  Outside the revision's domain it
    declines.  Step cost: at most two scored algorithm runs plus the
    looked-up appeal's own cost.
    """
    if not revision.is_appeal_independent():
        raise ValueError("revision function must be appeal-independent")

    def fn(declared: TypeProfile, meter: StepMeter) -> TypeProfile | None:
        key = tuple(
            Action(declared[j], DECLINE)
            for j in range(declared.num_agents)
            if j != agent
        )
        entry = revision.get(key)
        if entry is None:
            return None
        revised = declared.replace(agent, entry.declaration)
        belief = declared.replace(agent, true_valuation)
        suggestions = chain((revised,), (tau.transform(revised, meter) for tau in (entry.appeal,)))
        return _best_suggestion(suggestions, declared, alg, belief, meter)

    def bound(n: int) -> int:
        tau_bound = max(
            (value.appeal.step_bound(n) for _, value in revision.entries), default=0
        )
        return 2 * algorithm_step_cost(n) + tau_bound

    return Composed(fn, bound)


def build_bounded_family_appeal(
    agent: int,
    true_valuation: Valuation,
    revision: RevisionFunction,
    alg: AllocationAlgorithm,
) -> Appeal:
    """The simulation appeal for a revision function with an explicit appeal family.

    On a declared profile w the appeal scores the algorithm's output on w and
    on every family member's suggestion for w, all with the agent's true
    valuation substituted in, and returns the input profile whose output
    scored best (w itself on ties, then earliest family member).  With an
    empty family this reduces to suggesting w unchanged.  Step cost: one
    scored algorithm run per considered candidate plus the family members'
    own costs.
    """
    family = revision.appeal_family()

    def fn(declared: TypeProfile, meter: StepMeter) -> TypeProfile | None:
        belief = declared.replace(agent, true_valuation)
        suggestions = chain((declared,), (tau.transform(declared, meter) for tau in family))
        return _best_suggestion(suggestions, declared, alg, belief, meter)

    def bound(n: int) -> int:
        return (len(family) + 1) * algorithm_step_cost(n) + sum(
            tau.step_bound(n) for tau in family
        )

    return Composed(fn, bound)


@dataclass(frozen=True)
class RegretWitness:
    """A domain vector where the revised action beats the submitted one."""

    opponents: tuple[Action, ...]
    action_utility: Money
    revised_utility: Money


def check_feasibly_dominant(
    agent: int,
    action: Action,
    revision: RevisionFunction,
    alg: AllocationAlgorithm,
    pivot: PivotRule,
    time_limit: int,
    true_valuation: Valuation,
) -> RegretWitness | None:
    """Search the revision function's domain for a regret against ``action``.

    For every opponent vector in the domain, the agent's utility from playing
    ``action`` is compared with its utility from playing the revision's
    answer; the first strict improvement is returned as a witness, None if
    the action is never regretted (feasible dominance over this revision
    knowledge).
    """
    for opponents, revised in revision.entries:
        others = list(opponents)
        actions_mine = tuple(others[:agent] + [action] + others[agent:])
        actions_revised = tuple(others[:agent] + [revised] + others[agent:])
        true_vals = [o.declaration for o in others]
        true_types = TypeProfile(
            tuple(true_vals[:agent] + [true_valuation] + true_vals[agent:])
        )
        u_mine = run_second_chance(alg, actions_mine, pivot, time_limit, true_types).utilities[agent]
        u_revised = run_second_chance(alg, actions_revised, pivot, time_limit, true_types).utilities[agent]
        if u_revised > u_mine:
            return RegretWitness(opponents, u_mine, u_revised)
    return None


def lowest_type_closure(alg: AllocationAlgorithm) -> AllocationAlgorithm:
    """Best-of wrapper over the base output and each agent's zeroed-out run.

    Guarantees that replacing any single declaration with the zero valuation
    can never produce a better output than the wrapper itself; this is the
    property the individually rational variant needs.  Costs n+1 base
    invocations.
    """

    def fn(declared: TypeProfile) -> Allocation:
        candidates = [alg(declared)]
        for i in range(declared.num_agents):
            candidates.append(alg(declared.replace(i, zero_valuation(declared.num_items))))
        return max(candidates, key=lambda a: welfare(declared, a))

    return AllocationAlgorithm(f"lowest_type_closure({alg.name})", alg.kind, fn)


def run_second_chance_ir(
    alg: AllocationAlgorithm,
    actions: Sequence[Action],
    time_limit: int,
    true_types: TypeProfile,
) -> MechanismOutcome:
    """Individually rational variant: lowest-type closure plus algorithmic Clarke pivot.

    With truthful declarations every agent's utility is non-negative.
    """
    return run_second_chance(
        lowest_type_closure(alg), actions, clarke_pivot(alg), time_limit, true_types
    )
