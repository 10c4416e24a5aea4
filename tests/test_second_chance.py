"""Tests for the second-chance mechanism, appeal machinery, and IR variant."""

import random

import pytest

from helpers import (
    profile_of,
    random_profile,
    random_valuation,
    second_highest_algorithm,
    single_item_profile,
)
from mechlab.core import (
    SingleMindedValuation,
    TypeProfile,
    welfare,
    zero_valuation,
)
from mechlab.payments import clarke_pivot, make_pivot, run_vcg_based, zero_pivot
from mechlab.second_chance import (
    DECLINE,
    Action,
    BestOf,
    Composed,
    ReplaceOwn,
    ReplaceProfile,
    RevisionFunction,
    StepLimitExceeded,
    StepMeter,
    algorithm_step_cost,
    build_bounded_family_appeal,
    build_feasibly_truthful_appeal,
    charged_algorithm,
    check_feasibly_dominant,
    check_step_limited,
    evaluate_appeal,
    lowest_type_closure,
    run_second_chance,
    run_second_chance_ir,
    truthful_actions,
)
from mechlab.wd import (
    AllocationAlgorithm,
    greedy_algorithm,
    optimal_algorithm,
    single_winner_algorithm,
)

VICKREY_PROFILE = single_item_profile(2000, 1700, 1000)


# ---------------------------------------------------------------- step meter


def test_meter_charges_up_to_budget():
    meter = StepMeter(3)
    meter.charge(2)
    meter.charge(1)
    assert meter.consumed == 3
    with pytest.raises(StepLimitExceeded):
        meter.charge(1)
    assert meter.consumed == 3  # never exceeds budget


def test_meter_rejects_negative_budget():
    with pytest.raises(ValueError):
        StepMeter(-1)


# ---------------------------------------------------------------- combinators


def test_decline_always_declines():
    result, steps = evaluate_appeal(DECLINE, VICKREY_PROFILE, 100)
    assert result is None and steps == 0


def test_replace_own_swaps_single_declaration():
    appeal = ReplaceOwn(0, SingleMindedValuation(1, 1, 1500))
    result, steps = evaluate_appeal(appeal, VICKREY_PROFILE, 100)
    assert steps == 0
    assert result[0].value(1) == 1500
    assert result[1] == VICKREY_PROFILE[1]


def test_replace_own_declines_on_shape_mismatch():
    appeal = ReplaceOwn(5, SingleMindedValuation(1, 1, 1500))
    assert evaluate_appeal(appeal, VICKREY_PROFILE, 100)[0] is None
    wrong_universe = ReplaceOwn(0, SingleMindedValuation(2, 1, 1500))
    assert evaluate_appeal(wrong_universe, VICKREY_PROFILE, 100)[0] is None


def test_replace_profile_is_input_independent():
    target = single_item_profile(9, 9, 9)
    appeal = ReplaceProfile(target)
    assert evaluate_appeal(appeal, VICKREY_PROFILE, 100)[0] == target
    mismatched = ReplaceProfile(single_item_profile(9, 9))
    assert evaluate_appeal(mismatched, VICKREY_PROFILE, 100)[0] is None


def test_best_of_scores_candidates_with_the_algorithm():
    alg = second_highest_algorithm()
    belief = VICKREY_PROFILE
    candidates = BestOf(
        appeals=(
            ReplaceOwn(0, SingleMindedValuation(1, 1, 1500)),  # Alice becomes runner-up
            ReplaceOwn(0, SingleMindedValuation(1, 1, 500)),   # Carol becomes runner-up
        ),
        scored_by=belief,
        algorithm=alg,
    )
    result, steps = evaluate_appeal(candidates, VICKREY_PROFILE, 100)
    assert result[0].value(1) == 1500
    assert steps == 2 * algorithm_step_cost(3)


def test_best_of_keeps_the_first_of_equal_scores():
    belief = single_item_profile(5, 5)
    first = ReplaceProfile(single_item_profile(6, 5))   # item to agent 0, scores 5
    second = ReplaceProfile(single_item_profile(5, 6))  # item to agent 1, scores 5
    for appeals in ((first, second), (second, first)):
        best_of = BestOf(appeals=appeals, scored_by=belief, algorithm=optimal_algorithm())
        result, _ = evaluate_appeal(best_of, belief, 100)
        assert result == appeals[0].profile


def test_composed_exceptions_degrade_to_decline():
    def boom(profile, meter):
        raise RuntimeError("host bug")

    result, _ = evaluate_appeal(Composed(boom, lambda n: 0), VICKREY_PROFILE, 100)
    assert result is None


@pytest.mark.parametrize(
    "malformed", [42, tuple(VICKREY_PROFILE.valuations)], ids=["int", "tuple"]
)
def test_composed_non_profile_output_degrades_to_decline(malformed):
    appeal = Composed(lambda profile, meter: malformed, lambda n: 0)
    assert evaluate_appeal(appeal, VICKREY_PROFILE, 100) == (None, 0)


def test_negative_charge_cannot_buy_steps():
    # Refunding 1000 steps would let 50 charged runs fit a 3-step limit.
    alg = greedy_algorithm()

    def refund_then_run(profile, meter):
        meter.charge(-1000)
        for _ in range(50):
            charged_algorithm(alg, profile, meter)
        return profile

    appeal = Composed(refund_then_run, lambda n: 3)
    assert evaluate_appeal(appeal, VICKREY_PROFILE, 3) == (None, 0)
    meter = StepMeter(3)
    with pytest.raises(ValueError):
        meter.charge(-1)
    assert meter.consumed == 0


def test_appeal_that_raises_its_budget_declines():
    alg = greedy_algorithm()

    def buy_then_run(profile, meter):
        meter.budget += 1000
        for _ in range(50):
            charged_algorithm(alg, profile, meter)
        return profile

    appeal = Composed(buy_then_run, lambda n: 3)
    assert evaluate_appeal(appeal, VICKREY_PROFILE, 3) == (None, 0)


def test_appeal_that_resets_its_consumed_steps_declines():
    alg = greedy_algorithm()

    def reset_then_run(profile, meter):
        for _ in range(50):
            if meter.consumed == meter.budget:
                meter.consumed = 0
            charged_algorithm(alg, profile, meter)
        return profile

    appeal = Composed(reset_then_run, lambda n: 3)
    assert evaluate_appeal(appeal, VICKREY_PROFILE, 3) == (None, 3)
    meter = StepMeter(3)
    for name in ("budget", "consumed"):
        with pytest.raises(AttributeError):
            setattr(meter, name, 0)
    assert (meter.budget, meter.consumed) == (3, 0)


def test_best_of_skips_a_non_profile_suggestion():
    target = single_item_profile(9, 9, 9)
    best_of = BestOf(
        appeals=(
            Composed(lambda profile, meter: 42, lambda n: 0),
            ReplaceProfile(single_item_profile(9, 9)),  # a profile, but of two agents
            ReplaceProfile(target),
        ),
        scored_by=VICKREY_PROFILE,
        algorithm=optimal_algorithm(),
    )
    result, steps = evaluate_appeal(best_of, VICKREY_PROFILE, 100)
    assert result == target
    assert steps == algorithm_step_cost(3)


def test_best_of_declines_when_scored_by_is_shaped_unlike_the_input():
    best_of = BestOf((ReplaceProfile(VICKREY_PROFILE),), single_item_profile(9, 9),
                     optimal_algorithm())
    assert evaluate_appeal(best_of, VICKREY_PROFILE, 100) == (None, 0)


@pytest.mark.parametrize("make, match", [
    pytest.param(lambda: truthful_actions(VICKREY_PROFILE, [DECLINE] * 2), "one appeal per agent",
                 id="appeal_count"),
    pytest.param(lambda: RevisionFunction((((), Action(VICKREY_PROFILE[0])),) * 2),
                 "duplicate keys", id="duplicate_revision_keys"),
])
def test_second_chance_rejects_malformed_input(make, match):
    with pytest.raises(ValueError, match=match):
        make()


# ---------------------------------------------------------------- mechanism


def test_all_decline_reduces_to_vcg_based():
    rng = random.Random(31)
    algs = [optimal_algorithm(), greedy_algorithm(), single_winner_algorithm()]
    for _ in range(60):
        profile = random_profile(rng, rng.randint(1, 3), rng.randint(1, 3))
        alg = rng.choice(algs)
        pivot = rng.choice([zero_pivot(), clarke_pivot(alg)])
        direct = run_vcg_based(alg, profile, pivot, profile)
        second = run_second_chance(alg, truthful_actions(profile), pivot, 10, profile)
        assert second == direct


def test_appeal_can_rescue_a_bad_algorithm():
    # Runner-up rule picks Bob; Alice's appeal lowers her own declaration so
    # the rule picks her instead, and measured welfare prefers that output.
    alg = second_highest_algorithm()
    appeals = [ReplaceOwn(0, SingleMindedValuation(1, 1, 1500)), DECLINE, DECLINE]
    actions = truthful_actions(VICKREY_PROFILE, appeals)
    outcome = run_second_chance(alg, actions, zero_pivot(), 10, VICKREY_PROFILE)
    assert outcome.allocation.bundles == (1, 0, 0)
    base = alg(VICKREY_PROFILE)
    assert base.bundles == (0, 1, 0)
    assert welfare(VICKREY_PROFILE, outcome.allocation) == 2000 > 1700


def test_equal_welfare_appeal_does_not_replace_declared_output():
    profile = single_item_profile(5, 5)
    alg = optimal_algorithm()
    appeal = ReplaceOwn(0, SingleMindedValuation(1, 1, 6))
    assert alg(appeal.transform(profile, StepMeter(0))).bundles == (1, 0)
    assert alg(profile).bundles == (0, 1)
    actions = truthful_actions(profile, [appeal, DECLINE])
    outcome = run_second_chance(alg, actions, zero_pivot(), 10, profile)
    assert outcome.allocation.bundles == (0, 1)


def test_exhausted_appeal_is_treated_as_decline():
    alg = second_highest_algorithm()
    costly = BestOf(
        appeals=(ReplaceOwn(0, SingleMindedValuation(1, 1, 1500)),),
        scored_by=VICKREY_PROFILE,
        algorithm=alg,
    )
    actions = truthful_actions(VICKREY_PROFILE, [costly, DECLINE, DECLINE])
    zero_budget = run_second_chance(alg, actions, zero_pivot(), 0, VICKREY_PROFILE)
    assert zero_budget.allocation == alg(VICKREY_PROFILE)


def test_meter_soundness_exact_budget_boundary():
    alg = second_highest_algorithm()
    appeal = BestOf(
        appeals=(ReplaceOwn(0, SingleMindedValuation(1, 1, 1500)),),
        scored_by=VICKREY_PROFILE,
        algorithm=alg,
    )
    cost = algorithm_step_cost(3)  # one scored candidate
    suggestion, consumed = evaluate_appeal(appeal, VICKREY_PROFILE, cost)
    assert suggestion is not None and consumed == cost
    declined, _ = evaluate_appeal(appeal, VICKREY_PROFILE, cost - 1)
    assert declined is None

    actions = truthful_actions(VICKREY_PROFILE, [appeal, DECLINE, DECLINE])
    with_appeal = run_second_chance(alg, actions, zero_pivot(), cost, VICKREY_PROFILE)
    assert with_appeal.allocation.bundles == (1, 0, 0)
    starved = run_second_chance(alg, actions, zero_pivot(), cost - 1, VICKREY_PROFILE)
    absent = run_second_chance(alg, truthful_actions(VICKREY_PROFILE), zero_pivot(), cost - 1, VICKREY_PROFILE)
    assert starved == absent


def test_adding_appeals_never_decreases_declared_welfare():
    rng = random.Random(13)
    algs = [greedy_algorithm(), single_winner_algorithm()]
    for _ in range(120):
        profile = random_profile(rng, rng.randint(2, 3), rng.randint(1, 3))
        alg = rng.choice(algs)
        n = profile.num_agents
        appeals = [DECLINE] * n
        base = run_second_chance(alg, truthful_actions(profile, appeals), zero_pivot(), 50, profile)
        agent = rng.randrange(n)
        appeals[agent] = ReplaceOwn(agent, random_valuation(rng, profile.num_items))
        richer = run_second_chance(alg, truthful_actions(profile, appeals), zero_pivot(), 50, profile)
        assert welfare(profile, richer.allocation) >= welfare(profile, base.allocation)


def test_second_chance_utility_identity():
    rng = random.Random(77)
    alg = greedy_algorithm()
    pivot = clarke_pivot(alg)
    for _ in range(80):
        profile = random_profile(rng, rng.randint(2, 3), 2)
        appeals = [
            ReplaceOwn(i, random_valuation(rng, 2)) if rng.random() < 0.5 else DECLINE
            for i in range(profile.num_agents)
        ]
        true_types = random_profile(rng, profile.num_agents, 2)
        outcome = run_second_chance(alg, truthful_actions(profile, appeals), pivot, 50, true_types)
        for i in range(profile.num_agents):
            belief = profile.replace(i, true_types[i])
            lemma_path = welfare(belief, outcome.allocation) + pivot(i, profile)
            assert outcome.utilities[i] == lemma_path


# ------------------------------------------------- feasibly truthful actions


def opponents_key(profile, agent):
    return tuple(
        Action(profile[j], DECLINE) for j in range(profile.num_agents) if j != agent
    )


def test_empty_domain_revision_is_vacuously_safe():
    revision = RevisionFunction(())
    alg = second_highest_algorithm()
    appeal = build_feasibly_truthful_appeal(0, VICKREY_PROFILE[0], revision, alg)
    assert evaluate_appeal(appeal, VICKREY_PROFILE, 100)[0] is None
    action = Action(VICKREY_PROFILE[0], appeal)
    assert check_feasibly_dominant(
        0, action, revision, alg, zero_pivot(), 100, VICKREY_PROFILE[0]
    ) is None


def test_built_appeal_reproduces_runner_up_rescue():
    alg = second_highest_algorithm()
    revision = RevisionFunction((
        (opponents_key(VICKREY_PROFILE, 0),
         Action(SingleMindedValuation(1, 1, 1500), DECLINE)),
    ))
    appeal = build_feasibly_truthful_appeal(0, VICKREY_PROFILE[0], revision, alg)
    suggestion, consumed = evaluate_appeal(appeal, VICKREY_PROFILE, 100)
    assert suggestion == VICKREY_PROFILE.replace(0, SingleMindedValuation(1, 1, 1500))
    # tau declined, so only one candidate was scored
    assert consumed == algorithm_step_cost(3)
    actions = truthful_actions(VICKREY_PROFILE, [appeal, DECLINE, DECLINE])
    outcome = run_second_chance(alg, actions, zero_pivot(), 100, VICKREY_PROFILE)
    assert outcome.allocation.bundles == (1, 0, 0)


def test_built_appeal_requires_appeal_independence():
    tainted = RevisionFunction((
        ((Action(VICKREY_PROFILE[1], ReplaceOwn(1, VICKREY_PROFILE[0])),
          Action(VICKREY_PROFILE[2], DECLINE)),
         Action(SingleMindedValuation(1, 1, 1500), DECLINE)),
    ))
    with pytest.raises(ValueError):
        build_feasibly_truthful_appeal(0, VICKREY_PROFILE[0], tainted, second_highest_algorithm())


def random_appeal_independent_revision(rng, agent, n, m, domain_size):
    entries = []
    seen = set()
    for _ in range(domain_size):
        opponents = tuple(
            Action(random_valuation(rng, m), DECLINE) for _ in range(n - 1)
        )
        if opponents in seen:
            continue
        seen.add(opponents)
        tau_kind = rng.randrange(3)
        if tau_kind == 0:
            tau = DECLINE
        elif tau_kind == 1:
            tau = ReplaceOwn(rng.randrange(n), random_valuation(rng, m))
        else:
            tau = ReplaceProfile(random_profile(rng, n, m))
        entries.append((opponents, Action(random_valuation(rng, m), tau)))
    return RevisionFunction(tuple(entries))


def test_constructed_truthful_actions_are_never_regretted():
    rng = random.Random(2024)
    algs = [greedy_algorithm(), single_winner_algorithm(), second_highest_algorithm()]
    for trial in range(30):
        n, m = rng.randint(2, 3), rng.randint(1, 3)
        agent = rng.randrange(n)
        alg = rng.choice(algs)
        pivot = rng.choice([zero_pivot(), clarke_pivot(alg)])
        true_valuation = random_valuation(rng, m)
        revision = random_appeal_independent_revision(rng, agent, n, m, rng.randint(1, 6))
        appeal = build_feasibly_truthful_appeal(agent, true_valuation, revision, alg)
        action = Action(true_valuation, appeal)
        witness = check_feasibly_dominant(
            agent, action, revision, alg, pivot, 10_000, true_valuation
        )
        assert witness is None, f"trial {trial}: regret {witness}"


def test_built_appeal_step_cost_bound():
    rng = random.Random(555)
    alg = greedy_algorithm()
    for _ in range(30):
        n, m = rng.randint(2, 3), rng.randint(1, 2)
        agent = rng.randrange(n)
        true_valuation = random_valuation(rng, m)
        revision = random_appeal_independent_revision(rng, agent, n, m, 3)
        appeal = build_feasibly_truthful_appeal(agent, true_valuation, revision, alg)
        for opponents, entry in revision.entries:
            vals = [o.declaration for o in opponents]
            declared = TypeProfile(tuple(vals[:agent] + [true_valuation] + vals[agent:]))
            _, consumed = evaluate_appeal(appeal, declared, 10_000)
            revised = declared.replace(agent, entry.declaration)
            _, tau_cost = evaluate_appeal(entry.appeal, revised, 10_000)
            assert consumed <= 2 * algorithm_step_cost(n) + tau_cost
            assert consumed <= appeal.step_bound(n)


def test_check_step_limited_bounds_family_size_and_each_appeal():
    alg = greedy_algorithm()
    costly = BestOf(
        appeals=(ReplaceOwn(0, SingleMindedValuation(1, 1, 1500)),),
        scored_by=VICKREY_PROFILE,
        algorithm=alg,
    )
    other = single_item_profile(1900, 1650, 1000)
    revision = RevisionFunction((
        (opponents_key(VICKREY_PROFILE, 0),
         Action(SingleMindedValuation(1, 1, 1500), ReplaceProfile(VICKREY_PROFILE))),
        (opponents_key(single_item_profile(2000, 1600, 900), 0),
         Action(SingleMindedValuation(1, 1, 1800), costly)),
        (opponents_key(other, 0), Action(other[0], DECLINE)),
    ))
    assert len(revision.appeal_family()) == 2
    bound = costly.step_bound(3)
    assert bound == algorithm_step_cost(3)
    assert check_step_limited(revision, bound, 2, 3)
    assert not check_step_limited(revision, bound, 1, 3)
    assert not check_step_limited(revision, bound - 1, 2, 3)


def test_appeal_family_is_domain_then_range_first_occurrences_without_decline():
    lowered = ReplaceOwn(0, SingleMindedValuation(1, 1, 1500))
    fixed = ReplaceProfile(VICKREY_PROFILE)
    raised = ReplaceOwn(1, SingleMindedValuation(1, 1, 1800))
    range_only = ReplaceProfile(single_item_profile(1900, 1650, 1000))
    bidder = SingleMindedValuation(1, 1, 1000)
    revision = RevisionFunction((
        ((Action(bidder, DECLINE), Action(bidder, ReplaceOwn(0, SingleMindedValuation(1, 1, 1500)))),
         Action(bidder, raised)),
        ((Action(bidder, fixed), Action(bidder, lowered)), Action(bidder, fixed)),
        ((Action(bidder, DECLINE), Action(bidder, DECLINE)), Action(bidder, DECLINE)),
        ((Action(bidder, raised), Action(bidder, DECLINE)), Action(bidder, range_only)),
    ))
    assert revision.appeal_family() == (lowered, fixed, raised, range_only)


# ------------------------------------------------- bounded-family appeals


def profile_replace_family_revision(rng, agent, n, m, family_size, domain_size):
    """Random revision function whose appeals are all fixed-profile suggestions.

    Each range action's declaration change is itself represented in the
    family, which is what makes the simulation appeal's candidate coverage
    literal.
    """
    family = [ReplaceProfile(random_profile(rng, n, m)) for _ in range(family_size)]
    entries = []
    seen = set()
    for _ in range(domain_size):
        opponents = tuple(
            Action(
                random_valuation(rng, m),
                rng.choice(family) if family and rng.random() < 0.5 else DECLINE,
            )
            for _ in range(n - 1)
        )
        if opponents in seen:
            continue
        seen.add(opponents)
        revised_declaration = random_valuation(rng, m)
        opp_vals = [o.declaration for o in opponents]
        revised_profile = TypeProfile(
            tuple(opp_vals[:agent] + [revised_declaration] + opp_vals[agent:])
        )
        tau = ReplaceProfile(revised_profile)
        family.append(tau)
        entries.append((opponents, Action(revised_declaration, tau)))
    return RevisionFunction(tuple(entries))


def test_bounded_family_empty_family_suggests_input():
    revision = RevisionFunction(())
    alg = greedy_algorithm()
    appeal = build_bounded_family_appeal(0, VICKREY_PROFILE[0], revision, alg)
    suggestion, consumed = evaluate_appeal(appeal, VICKREY_PROFILE, 100)
    assert suggestion == VICKREY_PROFILE
    assert consumed == algorithm_step_cost(3)
    actions = truthful_actions(VICKREY_PROFILE, [appeal, DECLINE, DECLINE])
    outcome = run_second_chance(alg, actions, zero_pivot(), 100, VICKREY_PROFILE)
    assert outcome == run_second_chance(alg, truthful_actions(VICKREY_PROFILE), zero_pivot(), 100, VICKREY_PROFILE)


def test_bounded_family_matches_lookup_construction_on_rescue():
    alg = second_highest_algorithm()
    rescued = VICKREY_PROFILE.replace(0, SingleMindedValuation(1, 1, 1500))
    revision = RevisionFunction((
        (opponents_key(VICKREY_PROFILE, 0),
         Action(SingleMindedValuation(1, 1, 1500), ReplaceProfile(rescued))),
    ))
    appeal = build_bounded_family_appeal(0, VICKREY_PROFILE[0], revision, alg)
    suggestion, _ = evaluate_appeal(appeal, VICKREY_PROFILE, 100)
    assert suggestion == rescued
    actions = truthful_actions(VICKREY_PROFILE, [appeal, DECLINE, DECLINE])
    outcome = run_second_chance(alg, actions, zero_pivot(), 100, VICKREY_PROFILE)
    assert outcome.allocation.bundles == (1, 0, 0)


def test_bounded_family_actions_are_never_regretted():
    rng = random.Random(909)
    algs = [greedy_algorithm(), single_winner_algorithm(), second_highest_algorithm()]
    for trial in range(25):
        n, m = rng.randint(2, 3), rng.randint(1, 2)
        agent = rng.randrange(n)
        alg = rng.choice(algs)
        true_valuation = random_valuation(rng, m)
        revision = profile_replace_family_revision(rng, agent, n, m, rng.randint(0, 2), rng.randint(1, 5))
        appeal = build_bounded_family_appeal(agent, true_valuation, revision, alg)
        action = Action(true_valuation, appeal)
        witness = check_feasibly_dominant(
            agent, action, revision, alg, zero_pivot(), 10_000, true_valuation
        )
        assert witness is None, f"trial {trial}: regret {witness}"


def test_bounded_family_candidate_superset():
    rng = random.Random(61)
    alg = greedy_algorithm()
    for _ in range(20):
        n, m = rng.randint(2, 3), 2
        agent = rng.randrange(n)
        true_valuation = random_valuation(rng, m)
        revision = profile_replace_family_revision(rng, agent, n, m, 1, 3)
        family = revision.appeal_family()
        built = build_bounded_family_appeal(agent, true_valuation, revision, alg)
        for opponents, revised in revision.entries:
            opp_vals = [o.declaration for o in opponents]
            truthful = TypeProfile(tuple(opp_vals[:agent] + [true_valuation] + opp_vals[agent:]))
            revised_declared = TypeProfile(
                tuple(opp_vals[:agent] + [revised.declaration] + opp_vals[agent:])
            )
            # outputs considered when the agent plays truthfully with the built appeal
            considered = {alg(truthful).bundles}
            for tau in family:
                suggestion, _ = evaluate_appeal(tau, truthful, 10_000)
                if suggestion is not None:
                    considered.add(alg(suggestion).bundles)
            for opp in opponents:
                suggestion, _ = evaluate_appeal(opp.appeal, truthful, 10_000)
                if suggestion is not None:
                    considered.add(alg(suggestion).bundles)
            # candidates realized when the agent plays the revised action instead
            realized = {alg(revised_declared).bundles}
            all_actions = list(opponents)
            all_actions.insert(agent, revised)
            for act in all_actions:
                suggestion, _ = evaluate_appeal(act.appeal, revised_declared, 10_000)
                if suggestion is not None:
                    realized.add(alg(suggestion).bundles)
            assert realized <= considered


def test_bounded_family_step_cost():
    rng = random.Random(4242)
    alg = greedy_algorithm()
    for _ in range(20):
        n, m = rng.randint(2, 3), rng.randint(1, 2)
        agent = rng.randrange(n)
        true_valuation = random_valuation(rng, m)
        revision = profile_replace_family_revision(rng, agent, n, m, rng.randint(0, 2), 2)
        family = revision.appeal_family()
        appeal = build_bounded_family_appeal(agent, true_valuation, revision, alg)
        declared = random_profile(rng, n, m)
        _, consumed = evaluate_appeal(appeal, declared, 10_000)
        assert consumed <= 2 * (len(family) + 1) * algorithm_step_cost(n)
        assert consumed <= appeal.step_bound(n)


def test_regret_witness_found_for_naked_misreport():
    # If Alice simply misreports without an appeal, her own revision knowledge
    # (drop to 1500 against these opponents) exposes the regret: overbidding
    # to 2500 keeps her losing, while the revision's answer wins her the item.
    alg = second_highest_algorithm()
    revision = RevisionFunction((
        (opponents_key(VICKREY_PROFILE, 0),
         Action(SingleMindedValuation(1, 1, 1500), DECLINE)),
    ))
    naked = Action(SingleMindedValuation(1, 1, 2500), DECLINE)
    witness = check_feasibly_dominant(
        0, naked, revision, alg, zero_pivot(), 100, VICKREY_PROFILE[0]
    )
    assert witness is not None
    assert witness.revised_utility > witness.action_utility


# ---------------------------------------------------------------- IR variant


def test_lowest_type_closure_keeps_exact_solver_exact():
    rng = random.Random(8)
    base = optimal_algorithm()
    closed = lowest_type_closure(base)
    for _ in range(40):
        profile = random_profile(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert closed(profile) == base(profile)


def test_lowest_type_closure_ties_keep_the_base_output():
    profile = single_item_profile(5, 5, 5)
    base = optimal_algorithm()
    lowered = profile.replace(2, zero_valuation(1))
    assert base(lowered) != base(profile)
    assert welfare(profile, base(lowered)) == welfare(profile, base(profile))
    assert lowest_type_closure(base)(profile) == base(profile)


def test_lowest_type_closure_dominates_zeroed_runs():
    rng = random.Random(88)
    for base in (greedy_algorithm(), single_winner_algorithm()):
        closed = lowest_type_closure(base)
        for _ in range(60):
            profile = random_profile(rng, rng.randint(2, 3), rng.randint(1, 3))
            achieved = welfare(profile, closed(profile))
            assert achieved >= welfare(profile, base(profile))
            for i in range(profile.num_agents):
                lowered = profile.replace(i, zero_valuation(profile.num_items))
                assert achieved >= welfare(lowered, base(lowered))


def test_ir_vickrey_utilities():
    actions = truthful_actions(VICKREY_PROFILE)
    outcome = run_second_chance_ir(optimal_algorithm(), actions, 10, VICKREY_PROFILE)
    assert outcome.utilities == (300, 0, 0)


def test_ir_single_agent_never_negative():
    profile = profile_of(SingleMindedValuation(2, 3, 7))
    for alg in (optimal_algorithm(), greedy_algorithm(), single_winner_algorithm()):
        outcome = run_second_chance_ir(alg, truthful_actions(profile), 10, profile)
        assert outcome.utilities[0] >= 0


def test_ir_random_truthful_profiles_nonnegative():
    rng = random.Random(3001)
    for _ in range(150):
        profile = random_profile(rng, rng.randint(2, 3), rng.randint(1, 3))
        appeals = [
            ReplaceOwn(i, random_valuation(rng, profile.num_items)) if rng.random() < 0.3 else DECLINE
            for i in range(profile.num_agents)
        ]
        outcome = run_second_chance_ir(
            greedy_algorithm(), truthful_actions(profile, appeals), 50, profile
        )
        assert all(u >= 0 for u in outcome.utilities)
