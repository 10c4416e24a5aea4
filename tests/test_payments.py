"""Tests for payment rules and utility accounting."""

import itertools
import random
import sys
import threading
from fractions import Fraction

import pytest

from helpers import (
    all_allocations,
    brute_optimal,
    monotone_tables,
    profile_of,
    random_profile,
    random_valuation,
    reference_affine_payments,
    reference_affine_utility,
    reference_weighted_welfare,
    second_highest_algorithm,
    single_item_profile,
    unit_weights,
)
from mechlab import wd
from mechlab.core import (
    AdditiveValuation,
    AffineWeights,
    Allocation,
    BudgetExceededError,
    SingleMindedValuation,
    TypeProfile,
    weighted_welfare,
    zero_valuation,
)
from mechlab.payments import (
    affine_based_payments,
    affine_utility_of,
    clarke_pivot,
    make_pivot,
    run_vcg_based,
    utility_of,
    zero_pivot,
)
from mechlab.wd import (
    AllocationAlgorithm,
    AllocationRange,
    affine_optimal_algorithm,
    excluded_optima,
    greedy_algorithm,
    in_range_algorithm,
    optimal_algorithm,
    single_winner_algorithm,
)


VICKREY_PROFILE = single_item_profile(2000, 1700, 1000)


def test_vickrey_payments():
    payments = run_vcg_based(
        optimal_algorithm(), VICKREY_PROFILE, make_pivot("clarke_exact"), VICKREY_PROFILE
    ).payments
    assert payments == (-1700, 0, 0)


def test_vickrey_outcome():
    outcome = run_vcg_based(
        optimal_algorithm(), VICKREY_PROFILE, make_pivot("clarke_exact"), VICKREY_PROFILE
    )
    assert outcome.allocation == Allocation((1, 0, 0))
    assert outcome.payments == (-1700, 0, 0)
    assert outcome.utilities == (300, 0, 0)


def test_zero_pivot_is_plain_externality_sum():
    alg = optimal_algorithm()
    payments = run_vcg_based(alg, VICKREY_PROFILE, zero_pivot(), VICKREY_PROFILE).payments
    alloc = alg(VICKREY_PROFILE)
    for i, p in enumerate(payments):
        expected = sum(
            VICKREY_PROFILE[j].value(alloc.bundles[j]) for j in range(3) if j != i
        )
        assert p == expected


def test_second_highest_with_algorithmic_clarke():
    alg = second_highest_algorithm()
    payments = run_vcg_based(alg, VICKREY_PROFILE, clarke_pivot(alg), VICKREY_PROFILE).payments
    # Bob (the runner-up) wins and pays the third-highest value.
    assert payments[1] == -1000
    assert payments == (700, -1000, 0)


def test_run_vcg_based_zero_profile():
    profile = single_item_profile(0, 0)
    outcome = run_vcg_based(
        optimal_algorithm(), profile, make_pivot("clarke_exact"), profile
    )
    assert outcome.payments == (0, 0)
    assert outcome.utilities == (0, 0)


def test_utility_of_vickrey_winner_and_losers():
    alg = optimal_algorithm()
    pivot = make_pivot("clarke_exact")
    assert utility_of(VICKREY_PROFILE[0], 0, VICKREY_PROFILE, alg, pivot) == 300
    assert utility_of(VICKREY_PROFILE[1], 1, VICKREY_PROFILE, alg, pivot) == 0
    assert utility_of(VICKREY_PROFILE[2], 2, VICKREY_PROFILE, alg, pivot) == 0


def test_utility_identity_on_random_instances():
    rng = random.Random(99)
    algs = [optimal_algorithm(), single_winner_algorithm(), greedy_algorithm()]
    for _ in range(150):
        declared = random_profile(rng, rng.randint(1, 3), rng.randint(1, 3))
        true_types = random_profile(rng, declared.num_agents, declared.num_items)
        alg = rng.choice(algs)
        pivot = rng.choice([zero_pivot(), clarke_pivot(alg), make_pivot("clarke_exact")])
        outcome = run_vcg_based(alg, declared, pivot, true_types)
        for i in range(declared.num_agents):
            assert utility_of(true_types[i], i, declared, alg, pivot) == outcome.utilities[i]


def test_pivot_never_reads_own_declaration():
    rng = random.Random(4)
    for pivot in (zero_pivot(), make_pivot("clarke_exact")):
        for _ in range(50):
            declared = random_profile(rng, 3, 2)
            perturbed = declared.replace(1, random_profile(rng, 1, 2)[0])
            assert pivot(1, declared) == pivot(1, perturbed)


def test_clarke_exact_matches_generic_clarke_on_random_profiles():
    rng = random.Random(6)
    reference = clarke_pivot(optimal_algorithm())
    pivot = make_pivot("clarke_exact")
    for k in range(360):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        if k % 6 == 0:
            declared = TypeProfile((zero_valuation(m),) * n)
        elif k % 6 == 1:
            # Values in {0, 1}: many allocations tie for the optimum.
            declared = random_profile(rng, n, m, max_value=1)
        elif k % 6 == 2:
            # Duplicated declarations: swapping the two agents' bundles ties.
            base = random_profile(rng, n, m)
            declared = base.replace(n - 1, base[0])
        else:
            declared = random_profile(rng, n, m)
        expected = [reference(i, declared) for i in range(n)]
        assert [pivot(i, declared) for i in range(n)] == expected
        assert excluded_optima(declared) == tuple(-h for h in expected)


def test_clarke_exact_memo_tracks_the_profile_object():
    rng = random.Random(8)
    reference = clarke_pivot(optimal_algorithm())
    pivot = make_pivot("clarke_exact")
    first, second = random_profile(rng, 4, 3), random_profile(rng, 4, 3)
    for declared in (first, second, first, second):
        assert [pivot(i, declared) for i in range(4)] == [reference(i, declared) for i in range(4)]

    copy = TypeProfile(tuple(first.valuations))
    assert copy == first and copy is not first
    assert [pivot(i, copy) for i in range(4)] == [reference(i, first) for i in range(4)]

    # Only agent 2's declaration differs: its own pivot is unchanged, the
    # others' pivots follow the new profile rather than the stored one.
    assert pivot(0, first) == reference(0, first)
    changed = first.replace(2, SingleMindedValuation(3, 0b111, 50))
    assert pivot(2, changed) == pivot(2, first) == reference(2, first)
    others = [reference(i, changed) for i in (0, 1, 3)]
    assert others != [reference(i, first) for i in (0, 1, 3)]
    assert [pivot(i, changed) for i in (0, 1, 3)] == others

    for agent in (-1, 4):
        for rule in (pivot, reference):
            with pytest.raises(IndexError):
                rule(agent, first)


def test_shared_rows_match_references_when_profiles_interleave():
    # solve_optimal and the exact pivot share cached DP rows; interleaving
    # profiles, including ones that differ only in agent 0 (equal suffix
    # rows) and equal but distinct objects, must not change any result.
    rng = random.Random(14)
    reference = clarke_pivot(optimal_algorithm())
    pivot = make_pivot("clarke_exact")
    alg = optimal_algorithm()

    def pivots(declared):
        return [pivot(i, declared) for i in range(declared.num_agents)]

    for k in range(90):
        m = rng.randint(1, 3)
        first = random_profile(rng, 1 if k % 3 == 0 else rng.randint(2, 4), m,
                               max_value=rng.choice((1, 9)))
        if k % 2:
            second = first.replace(0, random_profile(rng, 1, m)[0])
        else:
            second = random_profile(rng, rng.randint(1, 4), m)
        copy = TypeProfile(tuple(first.valuations))
        want = {}
        for declared in (first, second):
            want[declared] = (brute_optimal(declared),
                              [reference(i, declared) for i in range(declared.num_agents)])
        assert alg(first) == want[first][0]
        assert alg(second) == want[second][0]
        assert pivots(first) == want[first][1]
        assert alg(first) == want[first][0]
        assert pivots(second) == want[second][1]
        assert alg(copy) == want[first][0] and copy is not first
        assert pivots(copy) == pivots(first) == want[first][1]
        outcome = run_vcg_based(alg, second, pivot, second)
        assert outcome.allocation == want[second][0]
        assert outcome == run_vcg_based(alg, second, reference, second)


def test_clarke_exact_shared_across_threads():
    rng = random.Random(12)
    reference = clarke_pivot(optimal_algorithm())
    profiles = [random_profile(rng, 4, 3) for _ in range(2)]
    expected = [[reference(i, p) for i in range(4)] for p in profiles]
    assert expected[0] != expected[1]
    pivot = make_pivot("clarke_exact")
    wrong = []

    def worker(start):
        for k in range(300):
            which = (start + k) % 2
            got = [pivot(i, profiles[which]) for i in range(4)]
            if got != expected[which]:
                wrong.append((which, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_clarke_exact_budget_matches_solve_optimal(monkeypatch):
    over = TypeProfile((zero_valuation(12),) * 17)
    with pytest.raises(BudgetExceededError) as by_solver:
        wd.solve_optimal(over)
    with pytest.raises(BudgetExceededError) as by_pivot:
        make_pivot("clarke_exact")(0, over)
    assert str(by_pivot.value) == str(by_solver.value)

    # The same boundary at m=2, where the DPs are cheap: 16 * 2**2 fits, 17 does not.
    monkeypatch.setattr(wd, "DEFAULT_WD_BUDGET", 16 * 4)
    rng = random.Random(10)
    at = random_profile(rng, 16, 2)
    reference = clarke_pivot(optimal_algorithm())
    pivot = make_pivot("clarke_exact")
    assert [pivot(i, at) for i in range(16)] == [reference(i, at) for i in range(16)]
    beyond = random_profile(rng, 17, 2)
    with pytest.raises(BudgetExceededError) as by_solver:
        wd.solve_optimal(beyond)
    with pytest.raises(BudgetExceededError) as by_pivot:
        pivot(0, beyond)
    assert str(by_pivot.value) == str(by_solver.value)


def test_affine_unit_weights_reproduce_vcg_exactly():
    tables = monotone_tables(2, (0, 1, 2))
    alg = optimal_algorithm()
    pivot = make_pivot("clarke_exact")
    for v0, v1 in itertools.product(tables[:10], repeat=2):
        profile = profile_of(v0, v1)
        assert affine_based_payments(alg, profile, unit_weights(2), pivot) == \
            run_vcg_based(alg, profile, pivot, profile).payments


def test_affine_weighted_single_item():
    weights = AffineWeights((Fraction(2), Fraction(1)))
    profile = profile_of(AdditiveValuation((3,)), AdditiveValuation((4,)))
    alg = affine_optimal_algorithm(weights)
    # weighted welfare 2*3 = 6 for agent 0 beats 1*4 = 4 for agent 1
    assert alg(profile) == Allocation((1, 0))
    payments = affine_based_payments(alg, profile, weights, zero_pivot())
    assert payments == (0, 6)


def test_affine_rejects_inexact_division():
    weights = AffineWeights((Fraction(2), Fraction(1)))
    profile = profile_of(AdditiveValuation((1,)), AdditiveValuation((5,)))
    alg = affine_optimal_algorithm(weights)
    assert alg(profile) == Allocation((0, 1))
    with pytest.raises(ValueError):
        affine_based_payments(alg, profile, weights, zero_pivot())


def test_affine_utility_identity_with_divisible_values():
    rng = random.Random(17)
    weight_choices = [Fraction(1), Fraction(2), Fraction(3)]
    for _ in range(100):
        n, m = rng.randint(2, 3), rng.randint(1, 2)
        # All values multiples of 6 keep every division exact.
        declared = TypeProfile(tuple(
            AdditiveValuation(tuple(6 * rng.randint(0, 5) for _ in range(m)))
            for _ in range(n)
        ))
        weights = AffineWeights(tuple(rng.choice(weight_choices) for _ in range(n)))
        alg = affine_optimal_algorithm(weights)
        payments = affine_based_payments(alg, declared, weights, zero_pivot())
        alloc = alg(declared)
        for i in range(n):
            true_v = AdditiveValuation(tuple(6 * rng.randint(0, 5) for _ in range(m)))
            direct = true_v.value(alloc.bundles[i]) + payments[i]
            assert affine_utility_of(true_v, i, declared, alg, weights, zero_pivot()) == direct


@pytest.mark.parametrize("bundles", [(0, 0, 3), (1,)])
def test_accounting_rejects_allocations_for_another_agent_count(bundles):
    profile = profile_of(AdditiveValuation((4, 5)), AdditiveValuation((2, 7)))
    alg = AllocationAlgorithm("fixed", wd.HEURISTIC, lambda p: Allocation(bundles))
    with pytest.raises(ValueError, match="allocation covers"):
        run_vcg_based(alg, profile, zero_pivot(), profile)
    with pytest.raises(ValueError, match="allocation covers"):
        affine_based_payments(alg, profile, unit_weights(2), zero_pivot())
    with pytest.raises(ValueError, match="allocation covers"):
        affine_utility_of(profile[0], 0, profile, alg, unit_weights(2), zero_pivot())


def test_affine_utility_rejects_weights_for_another_agent_count():
    profile = profile_of(AdditiveValuation((4,)), AdditiveValuation((2,)))
    for weights in (AffineWeights((1, 1, 1)), AffineWeights((1,))):
        with pytest.raises(ValueError, match="weight arity"):
            affine_utility_of(profile[0], 0, profile, optimal_algorithm(), weights, zero_pivot())


def test_accounting_rejects_true_types_for_another_agent_count():
    profile = profile_of(AdditiveValuation((4, 5)), AdditiveValuation((2, 7)))
    with pytest.raises(ValueError, match="true-type arity"):
        run_vcg_based(optimal_algorithm(), profile, zero_pivot(), profile_of(profile[0]))


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def test_integer_accounting_matches_fraction_reference():
    """Integer affine accounting equals the ``Fraction`` formulas, rejections included."""
    rng = random.Random(1110)
    choices = tuple(map(Fraction, (1, 2, 3, "1/2", "2/3", "3/2")))
    agreed = {"value": 0, "error": 0}
    kinds = set()
    for k in range(300):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        declared = random_profile(rng, n, m)
        kinds.update(type(v) for v in declared.valuations)
        bonus = rng.randint(1, 9)
        preference = (lambda a, bonus=bonus: bonus * (a.bundles[-1] & 1)) if k % 2 else None
        weights = AffineWeights(tuple(rng.choice(choices) for _ in range(n)), preference)
        alg = affine_optimal_algorithm(weights) if k // 2 % 2 else optimal_algorithm()
        pairs = [(weighted_welfare, reference_weighted_welfare, (weights, declared, a))
                 for a in all_allocations(n, m)]
        for pivot in (zero_pivot(), clarke_pivot(alg), make_pivot("clarke_exact")):
            pairs.append((affine_based_payments, reference_affine_payments,
                          (alg, declared, weights, pivot)))
            pairs.extend((affine_utility_of, reference_affine_utility,
                          (random_valuation(rng, m), i, declared, alg, weights, pivot))
                         for i in range(n))
        for fn, reference, args in pairs:
            got = _value_or_error(fn, *args)
            assert got == _value_or_error(reference, *args), (fn.__name__, k, args)
            agreed["error" if got is ValueError else "value"] += 1
    assert len(kinds) == 4
    assert min(agreed.values()) > 1000, agreed


def assert_grid_truthful(alg, pivot, grid_valuations):
    n = 2
    for v0, v1 in itertools.product(grid_valuations, repeat=n):
        truth = profile_of(v0, v1)
        truthful = run_vcg_based(alg, truth, pivot, truth)
        for agent in range(n):
            for deviation in grid_valuations:
                outcome = run_vcg_based(alg, truth.replace(agent, deviation), pivot, truth)
                assert outcome.utilities[agent] <= truthful.utilities[agent], (
                    f"agent {agent} gains by deviating at {truth}"
                )


def test_optimal_clarke_is_truthful_on_small_grid():
    grid = monotone_tables(1, (0, 1, 2, 3))
    assert_grid_truthful(optimal_algorithm(), make_pivot("clarke_exact"), grid)


def test_maximal_in_range_is_truthful_on_small_grid():
    grid = monotone_tables(1, (0, 1, 2, 3))
    rng = AllocationRange((Allocation((0, 0)), Allocation((1, 0)), Allocation((0, 1))))
    alg = in_range_algorithm(rng)
    assert_grid_truthful(alg, clarke_pivot(alg), grid)


def test_second_highest_is_not_truthful():
    alg = second_highest_algorithm()
    pivot = clarke_pivot(alg)
    truth = VICKREY_PROFILE
    truthful_u = run_vcg_based(alg, truth, pivot, truth).utilities[0]
    lowered = truth.replace(0, SingleMindedValuation(1, 1, 1500))
    assert run_vcg_based(alg, lowered, pivot, truth).utilities[0] > truthful_u


def test_make_pivot_validation():
    with pytest.raises(ValueError):
        make_pivot("bogus")
