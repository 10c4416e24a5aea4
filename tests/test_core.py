"""Tests for domain types and welfare arithmetic."""

import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_allocations, profile_of, unit_weights

from mechlab.cmap import GraphEdge, forcing_type
from mechlab.core import (
    MAX_ITEMS,
    AdditiveValuation,
    AffineWeights,
    Allocation,
    SingleMindedValuation,
    TableValuation,
    TypeProfile,
    XorValuation,
    full_bundle,
    monotone_closure,
    units,
    weighted_welfare,
    welfare,
    zero_valuation,
)

A, B = 1, 2  # bundle masks for items 0 and 1
AB = A | B


def brute_closure(raw):
    """Independent oracle: closed(s) = max over t subset of s of raw(t)."""
    n = len(raw)
    out = []
    for mask in range(n):
        best = 0
        for sub in range(n):
            if sub & mask == sub:
                best = max(best, raw[sub])
        out.append(best)
    return tuple(out)


def test_welfare_single_item_values():
    profile = profile_of(
        SingleMindedValuation(1, 1, units(2_000)),
        SingleMindedValuation(1, 1, 1_700_000_000),
        SingleMindedValuation(1, 1, 1_000_000_000),
    )
    assert welfare(profile, Allocation((1, 0, 0))) == 2_000_000_000


def test_welfare_empty_allocation_is_zero():
    profile = profile_of(
        TableValuation((0, 1, 1, 3)),
        AdditiveValuation((2, 2)),
    )
    assert welfare(profile, Allocation((0, 0))) == 0


def test_welfare_table_plus_additive():
    # Direct lookup oracle: agent 0 gets {a} worth 1, agent 1 gets {b} worth 2.
    profile = profile_of(
        TableValuation((0, 1, 1, 3)),
        AdditiveValuation((2, 2)),
    )
    assert welfare(profile, Allocation((A, B))) == 3


def test_welfare_rejects_arity_mismatch():
    profile = profile_of(AdditiveValuation((1, 1)))
    with pytest.raises(ValueError):
        welfare(profile, Allocation((1, 2)))


def test_welfare_rejects_out_of_universe_allocation():
    profile = profile_of(AdditiveValuation((1, 1)))
    with pytest.raises(ValueError):
        welfare(profile, Allocation((1 << 2,)))


def test_weighted_welfare_unit_weights_match_welfare():
    profile = profile_of(TableValuation((0, 1, 1, 3)), AdditiveValuation((2, 2)))
    for alloc in all_allocations(2, 2):
        assert weighted_welfare(unit_weights(2), profile, alloc) == welfare(profile, alloc)


def test_weighted_welfare_constant_preference():
    profile = profile_of(TableValuation((0, 1, 1, 3)), AdditiveValuation((2, 2)))
    weights = AffineWeights((Fraction(1), Fraction(1)), preference=lambda alloc: 5)
    assert weighted_welfare(weights, profile, Allocation((A, B))) == 8


def test_weighted_welfare_scales_components():
    # Components (3, 4): agent 0 worth 3 on {a,b}, agent 1 worth 4 on nothing extra.
    profile = profile_of(TableValuation((0, 1, 1, 3)), AdditiveValuation((4, 0)))
    weights = AffineWeights((Fraction(2), Fraction(1)))
    assert weighted_welfare(weights, profile, Allocation((AB, 0))) == 2 * 3
    assert weighted_welfare(weights, profile, Allocation((B, A))) == 2 * 1 + 1 * 4


def test_weighted_welfare_rejects_non_integral_total():
    profile = profile_of(AdditiveValuation((3, 0)))
    weights = AffineWeights((Fraction(1, 2),))
    # 3/2 micro-units is not representable.
    with pytest.raises(ValueError):
        weighted_welfare(weights, profile, Allocation((A,)))
    # 2/2 = 1 micro-unit is fine.
    profile2 = profile_of(AdditiveValuation((2, 0)))
    assert weighted_welfare(weights, profile2, Allocation((A,))) == 1


def test_weighted_welfare_rejects_non_positive_weights():
    with pytest.raises(ValueError):
        AffineWeights((Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        AffineWeights((Fraction(-1),))


def test_affine_weights_reject_non_rational_weights():
    assert AffineWeights((2, Fraction(1, 2))).num_agents == 2
    for weights in ((0.5, 1.5), (Fraction(1), Decimal("1.5"))):
        with pytest.raises(TypeError):
            AffineWeights(weights)


def test_affine_weights_derive_their_integer_scale_outside_equality():
    weights = AffineWeights((Fraction(3, 2), 2, Fraction(2, 3)))
    assert (weights.scale, weights.scaled) == (6, (9, 12, 4))
    same = AffineWeights((Fraction(3, 2), Fraction(2), Fraction(2, 3)))
    assert same == weights and hash(same) == hash(weights)
    assert "scale" not in repr(weights)


def test_evaluate_single_minded_ignores_partial_bundles():
    v = SingleMindedValuation(2, AB, 3)
    assert v.value(A) == 0
    assert v.value(AB) == 3
    assert v.value(0) == 0


def test_single_minded_matches_its_definition_and_is_a_one_bid_xor():
    rng = random.Random("single-minded")
    cases = [(2, 0, 0), (3, 0b101, 0), (1, 1, 7)]
    for _ in range(60):
        m = rng.randint(1, 6)
        cases.append((m, rng.randrange(1 << m), rng.choice((0, rng.randint(1, 50)))))
    for m, desired, value in cases:
        value = value if desired else 0
        v = SingleMindedValuation(m, desired, value)
        for bundle in range(1 << m):
            assert v.value(bundle) == (value if bundle & desired == desired else 0)
        assert v.atoms() == (((desired, value),) if value else ())
        assert v == SingleMindedValuation(m, desired, value)
        if desired:
            assert v != XorValuation(m, ((desired, value),))
    with pytest.raises(ValueError):
        SingleMindedValuation(2, 0, 1)


def test_evaluate_empty_bundle_is_zero_for_all_kinds():
    for v in (
        TableValuation((0, 2, 2, 2)),
        SingleMindedValuation(2, A, 5),
        AdditiveValuation((1, 2)),
        XorValuation(2, ((A, 1), (AB, 3))),
    ):
        assert v.value(0) == 0


def test_evaluate_xor_takes_best_contained_bid():
    v = XorValuation(2, ((A, 1), (AB, 3)))
    assert v.value(AB) == 3
    assert v.value(A) == 1
    assert v.value(B) == 0


def test_monotone_closure_idempotent_on_monotone_tables():
    raw = (0, 1, 1, 3)
    assert monotone_closure(raw).values == raw
    closed = monotone_closure((0, 5, 0, 2))
    assert monotone_closure(closed.values).values == closed.values


def test_monotone_closure_lifts_dominated_entries():
    raw = (0, 5, 0, 2)
    assert monotone_closure(raw).values == brute_closure(raw) == (0, 5, 0, 5)


def test_monotone_closure_all_zero():
    assert monotone_closure((0, 0, 0, 0)).values == (0, 0, 0, 0)


def test_monotone_closure_rejects_bad_input():
    with pytest.raises(ValueError):
        monotone_closure((1, 0))
    with pytest.raises(ValueError):
        monotone_closure((0, -1))
    with pytest.raises(ValueError):
        monotone_closure((0, 1, 2))


def test_table_valuation_rejects_non_monotone():
    with pytest.raises(ValueError):
        TableValuation((0, 5, 0, 2))


def test_zero_valuation_is_identically_zero():
    for m in range(1, 5):
        v = zero_valuation(m)
        assert all(v.value(s) == 0 for s in range(1 << m))
        assert v.value(full_bundle(m)) == 0


def test_zero_replacement_never_beats_original_optimum():
    # Exhaustive 2-agent, 2-item grid over small additive/table valuations.
    tables = [TableValuation(brute_closure(raw)) for raw in itertools.product(range(3), repeat=4) if raw[0] == 0]
    tables = list(dict.fromkeys(tables))

    def brute_opt(profile):
        return max(welfare(profile, alloc) for alloc in all_allocations(profile.num_agents, 2))

    for v0, v1 in itertools.product(tables[:12], repeat=2):
        profile = profile_of(v0, v1)
        best = brute_opt(profile)
        for i in range(2):
            lowered = profile.replace(i, zero_valuation(2))
            assert brute_opt(lowered) <= best


@given(
    raw=st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=7).map(
        lambda tail: tuple([0] + tail + [0] * (7 - len(tail)))
    )
)
@settings(max_examples=200, derandomize=True, database=None)
def test_closure_output_is_monotone_and_dominates_input(raw):
    closed = monotone_closure(raw).values
    n = len(raw)
    for mask in range(n):
        assert closed[mask] >= raw[mask]
        for sub in range(n):
            if sub & mask == sub:
                assert closed[sub] <= closed[mask]


@given(
    values=st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=3),
    scale=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=100, derandomize=True, database=None)
def test_welfare_linear_in_each_agent(values, scale):
    m = len(values)
    base = AdditiveValuation(tuple(values))
    scaled = AdditiveValuation(tuple(scale * v for v in values))
    other = SingleMindedValuation(m, full_bundle(m), 13)
    for alloc in all_allocations(2, m):
        w_base = welfare(profile_of(base, other), alloc)
        w_scaled = welfare(profile_of(scaled, other), alloc)
        summand = base.value(alloc.bundles[0])
        assert w_scaled - (w_base - summand) == scale * summand


def test_constructed_valuations_satisfy_free_disposal():
    m = 3
    examples = [
        monotone_closure((0, 4, 1, 4, 0, 5, 2, 5)),
        SingleMindedValuation(m, 0b101, 7),
        AdditiveValuation((1, 0, 2)),
        XorValuation(m, ((0b001, 2), (0b110, 3), (0b111, 4))),
    ]
    for v in examples:
        for mask in range(1 << m):
            for sub in range(1 << m):
                if sub & mask == sub:
                    assert v.value(sub) <= v.value(mask)


def test_allocation_rejects_overlap():
    with pytest.raises(ValueError):
        Allocation((A, A))


def test_profile_replace_rejects_out_of_range_agents():
    profile = profile_of(AdditiveValuation((1,)), AdditiveValuation((2,)))
    assert profile.replace(1, zero_valuation(1))[1] == zero_valuation(1)
    for agent in (-1, -2, 2):
        with pytest.raises(IndexError):
            profile.replace(agent, zero_valuation(1))


def test_profile_rejects_mixed_universes():
    with pytest.raises(ValueError):
        TypeProfile((AdditiveValuation((1,)), AdditiveValuation((1, 2))))


@pytest.mark.parametrize("make, match", [
    pytest.param(lambda: AdditiveValuation(()), "item count", id="no_items"),
    pytest.param(lambda: zero_valuation(MAX_ITEMS + 1), "item count", id="too_many_items"),
    pytest.param(lambda: AdditiveValuation((1,)).value(B), "outside universe", id="bundle_outside"),
    pytest.param(lambda: TableValuation((0, -1)), "bundle values", id="negative_table"),
    pytest.param(lambda: AdditiveValuation((-1,)), "item values", id="negative_additive"),
    pytest.param(lambda: XorValuation(1, ((A, -1),)), "bid values", id="negative_bid"),
    pytest.param(lambda: XorValuation(1, ((0, 1),)), "non-empty bundles", id="empty_bid_bundle"),
    pytest.param(lambda: XorValuation(1, ((B, 1),)), "within the universe", id="bid_bundle_outside"),
    pytest.param(lambda: Allocation(()), "at least one agent", id="allocation_no_agents"),
    pytest.param(lambda: Allocation((-1,)), "non-negative", id="allocation_negative_mask"),
    pytest.param(lambda: TypeProfile(()), "at least one agent", id="profile_no_agents"),
    pytest.param(lambda: profile_of(AdditiveValuation((1,))).replace(0, AdditiveValuation((1, 1))),
                 "different item universe", id="replace_other_universe"),
    pytest.param(lambda: AffineWeights(()), "at least one agent weight", id="no_weights"),
])
def test_core_rejects_malformed_input(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("money", [2.0, Fraction(2), Decimal(2)], ids=["float", "Fraction", "Decimal"])
@pytest.mark.parametrize("enter", [
    pytest.param(lambda x: TableValuation((0, x)), id="table"),
    pytest.param(lambda x: AdditiveValuation((x,)), id="additive"),
    pytest.param(lambda x: XorValuation(1, ((A, x),)), id="xor"),
    pytest.param(lambda x: SingleMindedValuation(1, A, x), id="single_minded"),
    pytest.param(lambda x: monotone_closure((0, x)), id="closure"),
    pytest.param(lambda x: GraphEdge(0, 1, 0, x), id="edge_cost"),
    pytest.param(lambda x: forcing_type(((0,),), (1,), x), id="alpha"),
])
def test_money_enters_only_as_int(enter, money):
    # an integral amount of another type is refused too: it would leak into payments
    enter(int(money))
    with pytest.raises(TypeError, match="int number of micro-units"):
        enter(money)
