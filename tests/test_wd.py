"""Tests for winner-determination algorithms and range/reasonableness analysis."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import (
    all_allocations,
    brute_optimal,
    brute_optimal_welfare,
    monotone_tables,
    profile_of,
    random_profile,
    single_item_profile,
    unit_weights,
)
from mechlab import wd
from mechlab.payments import affine_based_payments, clarke_pivot
from mechlab.core import (
    MAX_ITEMS,
    AdditiveValuation,
    AffineWeights,
    Allocation,
    BudgetExceededError,
    SingleMindedValuation,
    TableValuation,
    units,
    weighted_welfare,
    welfare,
)
from mechlab.wd import (
    AllocationRange,
    _density_key,
    affine_optimal_algorithm,
    check_reasonable,
    excluded_optima,
    greedy_algorithm,
    in_range_algorithm,
    iter_partitions,
    optimal_algorithm,
    profile_from_partition,
    single_winner_algorithm,
    solve_greedy,
    solve_in_range,
    solve_optimal,
    solve_optimal_weighted,
    solve_single_winner,
    verify_maximal_in_range,
)

A, B = 1, 2
AB = 3


def table_additive_profile():
    return profile_of(TableValuation((0, 1, 1, 3)), AdditiveValuation((2, 2)))


def three_single_minded():
    return profile_of(
        SingleMindedValuation(2, AB, 3),
        SingleMindedValuation(2, A, 2),
        SingleMindedValuation(2, B, 2),
    )


def test_optimal_single_item():
    alloc = solve_optimal(single_item_profile(2000, 1700, 1000))
    assert alloc == Allocation((1, 0, 0))
    assert welfare(single_item_profile(2000, 1700, 1000), alloc) == 2000


def test_optimal_all_zero_profile_gives_empty_allocation():
    profile = profile_of(AdditiveValuation((0, 0)), AdditiveValuation((0, 0)))
    assert solve_optimal(profile) == Allocation((0, 0))


def test_optimal_table_additive_instance():
    profile = table_additive_profile()
    # Oracle: enumerate all 9 allocations of 2 items to 2 agents.
    assert brute_optimal_welfare(profile) == 4
    alloc = solve_optimal(profile)
    assert alloc == Allocation((0, AB))
    assert welfare(profile, alloc) == 4


def test_optimal_matches_enumeration_exhaustively():
    tables = monotone_tables(2, (0, 1, 2))
    for v0, v1 in itertools.product(tables, repeat=2):
        profile = profile_of(v0, v1)
        assert solve_optimal(profile) == brute_optimal(profile)


def test_optimal_matches_enumeration_on_random_profiles():
    rng = random.Random(7)
    for _ in range(200):
        profile = random_profile(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert solve_optimal(profile) == brute_optimal(profile)


def test_optimal_budget_guard(monkeypatch):
    profile = table_additive_profile()
    monkeypatch.setattr(wd, "DEFAULT_WD_BUDGET", 8)
    assert solve_optimal(profile) == Allocation((0, AB))
    assert excluded_optima(profile) == (4, 3)
    # The check runs on every call, before a cached result could be returned.
    monkeypatch.setattr(wd, "DEFAULT_WD_BUDGET", 7)
    for solver in (solve_optimal, excluded_optima):
        with pytest.raises(BudgetExceededError, match=r"size 2\*2\^2 exceeds budget 7"):
            solver(profile)


def test_single_winner_basic():
    profile = table_additive_profile()
    # v0(S) = 3 < v1(S) = 4
    assert solve_single_winner(profile) == Allocation((0, AB))

    solo = profile_of(AdditiveValuation((1, 1)))
    assert solve_single_winner(solo) == Allocation((AB,))

    tied = single_item_profile(5, 5, 5)
    assert solve_single_winner(tied) == Allocation((1, 0, 0))


def test_single_winner_welfare_bound():
    rng = random.Random(11)
    for _ in range(200):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        profile = random_profile(rng, n, m)
        achieved = welfare(profile, solve_single_winner(profile))
        assert achieved * min(n, m) >= brute_optimal_welfare(profile)


def test_greedy_disjoint_single_minded_serves_everyone():
    profile = profile_of(
        SingleMindedValuation(2, A, 5),
        SingleMindedValuation(2, B, 1),
    )
    alloc = solve_greedy(profile)
    assert alloc == Allocation((A, B))
    assert welfare(profile, alloc) == 6


def test_greedy_three_single_minded_ordering():
    # Exact densities: 3/sqrt(2) > 2, so the pair bid is accepted first and
    # blocks both singleton bids (9 * 1 > 4 * 2 as cross-multiplied squares).
    profile = three_single_minded()
    alloc = solve_greedy(profile)
    assert alloc == Allocation((AB, 0, 0))
    assert welfare(profile, alloc) == 3
    assert brute_optimal_welfare(profile) == 4  # greedy is suboptimal here


def test_greedy_tie_breaks_prefer_value_then_agent():
    profile = profile_of(
        SingleMindedValuation(1, 1, 4),
        SingleMindedValuation(1, 1, 4),
    )
    assert solve_greedy(profile) == Allocation((1, 0))


def test_greedy_integer_density_key_orders_like_rationals():
    def rational_key(entry):
        agent, mask, val = entry
        return (-Fraction(val * val, mask.bit_count()), -val, agent, mask)

    # Equal squared densities across bundle sizes: 2**2/1 == 4**2/4 == 6**2/9.
    ties = [(0, 0b1, 2), (1, 0b1111, 4), (2, 0b111111111, 6), (0, 0b1010, 0), (3, 0b11, 0)]
    rng = random.Random(31)
    for _ in range(300):
        entries = ties + [
            (rng.randrange(6), rng.randint(1, (1 << rng.randint(1, MAX_ITEMS)) - 1), rng.randint(0, 30))
            for _ in range(rng.randint(1, 40))
        ]
        rng.shuffle(entries)
        assert sorted(entries, key=_density_key) == sorted(entries, key=rational_key)


def test_greedy_never_beats_optimal():
    rng = random.Random(23)
    for _ in range(300):
        profile = random_profile(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert welfare(profile, solve_greedy(profile)) <= brute_optimal_welfare(profile)


def test_greedy_at_most_one_atom_per_agent():
    profile = profile_of(AdditiveValuation((3, 3)), AdditiveValuation((1, 0)))
    alloc = solve_greedy(profile)
    assert alloc.bundles[0].bit_count() <= 1


def test_in_range_full_range_equals_optimal():
    profile = table_additive_profile()
    rng_all = AllocationRange(tuple(all_allocations(2, 2)))
    assert solve_in_range(profile, rng_all) == solve_optimal(profile)


def test_in_range_two_candidates():
    profile = table_additive_profile()
    candidates = AllocationRange((Allocation((AB, 0)), Allocation((0, AB))))
    assert solve_in_range(profile, candidates) == Allocation((0, AB))


def test_in_range_singleton_range():
    fixed = Allocation((A, B))
    assert solve_in_range(table_additive_profile(), AllocationRange((fixed,))) == fixed


def test_in_range_tie_prefers_smaller_encoding_listed_later():
    profile = table_additive_profile()
    larger, smaller = Allocation((B, A)), Allocation((A, B))
    assert welfare(profile, larger) == welfare(profile, smaller)
    assert solve_in_range(profile, AllocationRange((larger, smaller))) == smaller


def test_weighted_optimum_with_unit_weights_matches_enumeration():
    rng = random.Random(97)
    for _ in range(40):
        profile = random_profile(rng, rng.randint(1, 3), rng.randint(1, 3))
        expected = brute_optimal(profile)
        assert solve_optimal_weighted(unit_weights(profile.num_agents), profile) == expected


def enumerated_weighted_optimum(weights, profile):
    """The weighted optimum by scoring every allocation with ``weighted_welfare``."""
    return min(all_allocations(profile.num_agents, profile.num_items),
               key=lambda a: (-weighted_welfare(weights, profile, a), a.bundles))


def outcome(solver, weights, profile):
    try:
        return solver(weights, profile)
    except ValueError:
        return ValueError


WEIGHT_CHOICES = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2))


def test_weighted_optimum_matches_enumeration_with_weights_and_preference():
    rng = random.Random(99)
    kinds, answers = set(), set()
    for k in range(300):
        n, m = rng.randint(1, 3), rng.randint(1, 4)
        profile = random_profile(rng, n, m, max_value=2)
        kinds.update(type(v) for v in profile.valuations)
        preference = None
        if k % 2:
            bonus = {a.bundles: rng.choice((0, 0, 1, 2, Fraction(1, 2)))
                     for a in all_allocations(n, m)}
            preference = lambda a, bonus=bonus: bonus[a.bundles]
        weights = AffineWeights(tuple(rng.choice(WEIGHT_CHOICES) for _ in range(n)), preference)
        expected = outcome(enumerated_weighted_optimum, weights, profile)
        assert outcome(solve_optimal_weighted, weights, profile) == expected
        answers.add((expected is ValueError, preference is None))
    assert len(kinds) == 4
    assert len(answers) == 4  # both paths both solve and reject


def test_weighted_optimum_budget_guard(monkeypatch):
    profile = table_additive_profile()
    monkeypatch.setattr(wd, "DEFAULT_WD_BUDGET", 9)  # 3**2 allocations
    assert solve_optimal_weighted(unit_weights(2), profile) == Allocation((0, AB))
    monkeypatch.setattr(wd, "DEFAULT_WD_BUDGET", 8)
    with pytest.raises(BudgetExceededError, match="needs 9 allocations, budget is 8"):
        solve_optimal_weighted(unit_weights(2), profile)


class CountingPreference:
    def __init__(self):
        self.calls = 0

    def __call__(self, alloc):
        self.calls += 1
        return alloc.bundles[0] % 3


def test_preference_read_once_per_allocation_per_weights_object():
    profile = random_profile(random.Random(5), 2, 3)
    for _ in range(2):
        preference = CountingPreference()
        weights = AffineWeights((Fraction(1), Fraction(1)), preference)
        alg = affine_optimal_algorithm(weights)
        affine_based_payments(alg, profile, weights, clarke_pivot(alg))  # three solves
        assert preference.calls == 3 ** 3  # (n+1)**m allocations, once each
    # only the last weights object's values are kept, so interleaving reads each object again
    first, second = (AffineWeights((Fraction(1), Fraction(1)), CountingPreference())
                     for _ in range(2))
    for weights in (first, second, first, second):
        solve_optimal_weighted(weights, profile)
    assert first.preference.calls == second.preference.calls == 2 * 3 ** 3


class UnhashablePreference:
    """A bonus per item given to one agent; all instances compare equal, none hash."""

    def __init__(self, bonus, agent):
        self.bonus, self.agent = bonus, agent

    def __eq__(self, other):
        return isinstance(other, UnhashablePreference)

    __hash__ = None

    def __call__(self, alloc):
        return self.bonus * alloc.bundles[self.agent].bit_count()


def test_unhashable_preference_is_supported():
    weights = AffineWeights((Fraction(1), Fraction(1)), UnhashablePreference(5, 0))
    with pytest.raises(TypeError):
        hash(weights)
    profile = table_additive_profile()
    assert solve_optimal_weighted(weights, profile) == enumerated_weighted_optimum(weights, profile)
    assert solve_optimal_weighted(weights, profile) == Allocation((AB, 0))


def test_alternating_weights_objects_each_get_their_own_optimum():
    profile = table_additive_profile()
    hashable = AffineWeights((Fraction(1), Fraction(2)), lambda a: 3 * a.bundles[0].bit_count())
    favour_0 = AffineWeights((Fraction(1), Fraction(1)), UnhashablePreference(10, 0))
    neutral = AffineWeights((Fraction(1), Fraction(1)), UnhashablePreference(0, 0))
    assert favour_0 == neutral
    for weights in (favour_0, neutral, hashable, favour_0, hashable, neutral, favour_0):
        assert solve_optimal_weighted(weights, profile) == enumerated_weighted_optimum(weights, profile)
    assert solve_optimal_weighted(favour_0, profile) == Allocation((AB, 0))
    assert solve_optimal_weighted(neutral, profile) == Allocation((0, AB))


def test_verify_maximal_single_winner_clean():
    grid = [single_item_profile(a, b) for a in range(3) for b in range(3)]
    assert verify_maximal_in_range(single_winner_algorithm(), grid) is None


def test_verify_maximal_optimal_clean():
    tables = monotone_tables(2, (0, 1, 2))
    grid = [profile_of(v0, v1) for v0, v1 in itertools.product(tables[:8], repeat=2)]
    assert verify_maximal_in_range(optimal_algorithm(), grid) is None


def test_verify_maximal_greedy_violation():
    w1 = three_single_minded()
    w2 = profile_of(
        SingleMindedValuation(2, AB, 1),
        SingleMindedValuation(2, A, 2),
        SingleMindedValuation(2, B, 2),
    )
    violation = verify_maximal_in_range(greedy_algorithm(), [w1, w2])
    assert violation is not None
    assert violation.profile == w1
    assert violation.produced == Allocation((AB, 0, 0))
    assert violation.better == Allocation((0, A, B))
    assert welfare(w1, violation.better) > welfare(w1, violation.produced)


def test_verify_maximal_in_range_algorithms_always_clean():
    rng = random.Random(5)
    universe = list(all_allocations(2, 2))
    for _ in range(20):
        allocations = tuple(rng.sample(universe, k=rng.randint(1, 5)))
        alg = in_range_algorithm(AllocationRange(allocations))
        grid = [random_profile(rng, 2, 2) for _ in range(15)]
        assert verify_maximal_in_range(alg, grid) is None


def test_check_reasonable_single_winner_leaves_sole_desirer_empty():
    profile = profile_of(
        SingleMindedValuation(2, A, 1),
        SingleMindedValuation(2, B, 1),
    )
    witness = check_reasonable(single_winner_algorithm(), profile)
    assert witness is not None
    # Agent 0 wins everything on the index tie-break, so item b (index 1),
    # desired only by agent 1, is the first violation.
    assert (witness.item, witness.agent) == (1, 1)
    assert witness.allocation == Allocation((AB, 0))


def test_check_reasonable_optimal_serves_both():
    profile = profile_of(
        SingleMindedValuation(2, A, 1),
        SingleMindedValuation(2, B, 1),
    )
    assert check_reasonable(optimal_algorithm(), profile) is None


def test_check_reasonable_vacuous_when_items_shared():
    profile = profile_of(AdditiveValuation((1, 1)), AdditiveValuation((2, 2)))
    assert check_reasonable(single_winner_algorithm(), profile) is None


def test_partition_profile_two_singletons():
    profile = profile_from_partition(Allocation((A, B)))
    assert profile.num_agents == 2
    assert all(isinstance(v, SingleMindedValuation) for v in profile.valuations)
    assert profile[0].value(A) == units(1)
    assert profile[1].value(A) == 0


def test_partition_profile_single_agent():
    profile = profile_from_partition(Allocation((AB,)))
    assert profile.num_agents == 1
    assert profile[0].value(AB) == units(1)


def test_partition_profile_rejects_empty_bundle():
    with pytest.raises(ValueError):
        profile_from_partition(Allocation((A, 0)))


@pytest.mark.parametrize("make, match", [
    pytest.param(lambda: AllocationRange(()), "non-empty", id="empty_range"),
    pytest.param(lambda: AllocationRange((Allocation((A,)), Allocation((A, 0)))), "same agents",
                 id="range_mixed_agent_counts"),
    pytest.param(lambda: solve_optimal_weighted(unit_weights(3), table_additive_profile()),
                 "weight arity", id="weighted_arity"),
    pytest.param(lambda: profile_from_partition(Allocation((A, B)), num_items=1),
                 "outside the requested universe", id="partition_outside"),
])
def test_wd_rejects_malformed_input(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("num_items", [1, 2, 3, 4])
def test_partition_is_the_unique_optimum_of_its_profile(num_items):
    for partition in iter_partitions(num_items):
        profile = profile_from_partition(partition, num_items=num_items)
        assert solve_optimal(profile) == partition


def test_all_algorithms_return_valid_allocations():
    rng = random.Random(41)
    algs = [optimal_algorithm(), single_winner_algorithm(), greedy_algorithm()]
    for _ in range(100):
        profile = random_profile(rng, rng.randint(1, 4), rng.randint(1, 3))
        for alg in algs:
            alloc = alg(profile)
            assert alloc.num_agents == profile.num_agents
            assert alloc.within_universe(profile.num_items)


def test_algorithms_are_deterministic():
    rng = random.Random(3)
    profiles = [random_profile(rng, 3, 3) for _ in range(25)]
    algs = [optimal_algorithm(), single_winner_algorithm(), greedy_algorithm()]
    assert [(alg.name, alg.kind) for alg in algs] == [
        ("optimal", "exact"), ("single_winner", "maximal-in-range"), ("greedy", "heuristic")]
    for alg in algs:
        first = [alg(p) for p in profiles]
        second = [alg(p) for p in profiles]
        assert first == second
