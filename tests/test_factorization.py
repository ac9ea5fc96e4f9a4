from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalg import (
    BOTTOM,
    Bag,
    BagVal,
    Compose,
    ConstVal,
    Exponent,
    FMap,
    FiniteSet,
    FunVal,
    IdVal,
    NotIsomorphic,
    PowNotPrecise,
    PreciseFactorization,
    SetVal,
    TagVal,
    TotalMap,
    TupleVal,
    factorization_iso,
    fmap,
    is_precise,
    least_bound,
    parse_functor,
    precise_factorize,
    used_states,
)

import generators


def binary_signature_map() -> FMap:
    """Four terms over two variables: two bottoms, a (y1,y2) pair and a
    (y2,y2) pair."""
    f = parse_functor("Id x Id + 1")
    return FMap(
        FiniteSet(("x1", "x2", "x3", "x4")),
        FiniteSet(("y1", "y2")),
        f,
        {
            "x1": TagVal(1, ConstVal(BOTTOM)),
            "x2": TagVal(0, TupleVal((IdVal("y1"), IdVal("y2")))),
            "x3": TagVal(0, TupleVal((IdVal("y2"), IdVal("y2")))),
            "x4": TagVal(1, ConstVal(BOTTOM)),
        },
    )


def test_least_bound_of_the_signature_map():
    lb = least_bound(binary_signature_map())
    assert lb.sub.as_set() == {"y1", "y2"}
    assert lb.m.mapping() == {"y1": "y1", "y2": "y2"}


def test_precise_factorization_of_the_signature_map():
    f = binary_signature_map()
    pf = precise_factorize(f)
    assert pf.middle.as_set() == {"x2.0", "x2.1", "x3.0", "x3.1"}
    assert pf.h.mapping() == {"x2.0": "y1", "x2.1": "y2",
                              "x3.0": "y2", "x3.1": "y2"}
    assert is_precise(pf.p)
    for x in f.domain:
        assert fmap(f.functor, pf.h, pf.p.values[x]) == f.values[x]


def test_least_bound_is_exactly_the_used_states():
    rng = random.Random(5)
    for _ in range(300):
        f = generators.random_fmap(rng, pow_free=False)
        lb = least_bound(f)
        wanted = set()
        for x in f.domain:
            wanted |= used_states(f.functor, f.values[x]).as_set()
        assert lb.sub.as_set() == wanted
        for x in f.domain:
            assert fmap(f.functor, lb.m, lb.g.values[x]) == f.values[x]


def test_pow_free_factorizations_satisfy_the_law():
    rng = random.Random(7)
    for _ in range(300):
        f = generators.random_fmap(rng, pow_free=True)
        pf = precise_factorize(f)
        assert is_precise(pf.p)
        for x in f.domain:
            assert fmap(f.functor, pf.h, pf.p.values[x]) == f.values[x]
        # the middle always covers the least bound exactly
        assert set(pf.h.mapping().values()) == least_bound(f).sub.as_set()


def test_bag_precision_criterion():
    # a bag map is precise iff every codomain state is used exactly once
    rng = random.Random(13)
    for _ in range(300):
        f = generators.random_bag_map(rng)
        once = all(sum(f.values[x].multiplicity(y) for x in f.domain) == 1
                   for y in f.codomain)
        assert is_precise(f) == once


def test_least_bound_minimality_by_brute_force():
    rng = random.Random(19)
    for _ in range(40):
        f = generators.random_fmap(rng, pow_free=False)
        if len(f.codomain) > 6:
            continue
        sub = least_bound(f).sub.as_set()
        names = list(f.codomain)
        for r in range(len(names) + 1):
            for cand in itertools.combinations(names, r):
                expressible = all(
                    used_states(f.functor, f.values[x]).as_set() <= set(cand)
                    for x in f.domain)
                if expressible:
                    assert sub <= set(cand)


bag_maps = st.builds(
    generators.random_bag_map,
    st.integers(min_value=0, max_value=2**32).map(random.Random),
)


@settings(max_examples=120, deadline=None)
@given(bag_maps)
def test_bag_factorization_uses_every_middle_element_once(f):
    pf = precise_factorize(f)
    for y in pf.middle:
        assert sum(pf.p.values[x].multiplicity(y) for x in f.domain) == 1
    for x in f.domain:
        assert fmap(Bag(), pf.h, pf.p.values[x]) == f.values[x]


def test_precise_maps_are_their_own_factorization():
    f = binary_signature_map()
    pf = precise_factorize(f)
    assert is_precise(pf.p)
    again = precise_factorize(pf.p)
    assert again.h.is_bijective()


def test_non_precise_maps_are_detected():
    f = binary_signature_map()
    assert not is_precise(f)  # y2 is used three times, y1 once


def test_nonempty_powerset_values_cannot_be_precise():
    f = FMap(FiniteSet(("x",)), FiniteSet(("y",)), parse_functor("Pow"),
             {"x": SetVal(("y",))})
    with pytest.raises(PowNotPrecise):
        precise_factorize(f)
    assert least_bound(f).sub.as_set() == {"y"}


def test_empty_powerset_values_factor_fine():
    f = FMap(FiniteSet(("x",)), FiniteSet(("y",)), parse_functor("Pow"),
             {"x": SetVal(())})
    pf = precise_factorize(f)
    assert len(pf.middle) == 0


def renamed(pf: PreciseFactorization, rho: TotalMap) -> PreciseFactorization:
    """Transport a factorization along a bijective renaming of its middle."""
    p2 = FMap(pf.p.domain, rho.codomain, pf.p.functor,
              {x: fmap(pf.p.functor, rho, pf.p.values[x])
               for x in pf.p.domain})
    h2 = TotalMap(rho.codomain, pf.h.codomain,
                  {rho[m]: pf.h[m] for m in pf.middle})
    return PreciseFactorization(rho.codomain, p2, h2)


def test_factorization_iso_recovers_a_middle_renaming():
    rng = random.Random(17)
    f = binary_signature_map()
    pf = precise_factorize(f)
    rho = generators.random_renaming(rng, pf.middle)
    iso = factorization_iso(pf, renamed(pf, rho))
    assert iso.mapping() == rho.mapping()


def test_factorization_iso_rejects_factorizations_of_different_maps():
    f = binary_signature_map()
    pf = precise_factorize(f)
    other = FMap(f.domain, f.codomain, f.functor,
                 dict(f.values, x1=TagVal(0, TupleVal((IdVal("y1"),
                                                       IdVal("y1"))))))
    with pytest.raises(NotIsomorphic):
        factorization_iso(pf, precise_factorize(other))


def test_bag_copies_of_one_state_stay_separate_in_the_middle():
    f = FMap(FiniteSet(("x",)), FiniteSet(("y",)), Bag(),
             {"x": BagVal((("y", 3),))})
    pf = precise_factorize(f)
    assert len(pf.middle) == 3
    assert set(pf.h.mapping().values()) == {"y"}
    assert pf.p.values["x"].total() == 3


def test_precise_agrees_with_the_factorization():
    rng = random.Random(13)
    for _ in range(300):
        c = generators.random_coalgebra(rng, max_states=4, depth=3)
        for x, v in c.structure.items():
            try:
                precise_factorize(FMap(FiniteSet((x,)), c.carrier, c.functor, {x: v}))
                factors = True
            except PowNotPrecise:
                factors = False
            assert c.functor.precise([v]) == [factors]


def naming_draws(seed: int, count: int = 300) -> list[FMap]:
    """Seeded `random_fmap` draws whose functor has a Bag, an exponent or a
    composition in it; each of the three turns up in some draw."""
    rng = random.Random(seed)
    draws, seen = [], set()
    for _ in range(count):
        f = generators.random_fmap(rng, depth=3)
        kinds, todo = set(), [f.functor]
        while todo:
            g = todo.pop()
            kinds.add(type(g))
            todo += g.children()
        kinds &= {Bag, Exponent, Compose}
        if kinds:
            draws.append(f)
            seen |= kinds
    assert seen == {Bag, Exponent, Compose}
    return draws


def test_default_middle_names_are_slot_positions():
    rng = random.Random(211)
    for f in naming_draws(23):
        pf = precise_factorize(f)
        names = []
        for x in f.domain:
            slots = [r for r, _ in f.functor.edges([pf.p.values[x]])[0]]
            assert slots == [f"{x}.{j}" for j in range(len(slots))]
            names += slots
        assert sorted(pf.middle) == sorted(names)
        # the names follow the map, not the order of its domain
        again = precise_factorize(FMap(generators.shuffled(rng, f.domain),
                                       f.codomain, f.functor, dict(f.values)))
        assert again.h.mapping() == pf.h.mapping()
        assert again.p.values == pf.p.values


def test_tagged_middle_names_count_the_copies_of_each_state():
    for f in naming_draws(29):
        pf = precise_factorize(f, "t:")
        copies: dict[str, int] = {}
        for r in pf.middle:
            y = pf.h[r]
            copies[y] = copies.get(y, 0) + 1
            assert r == f"t:{y}" if copies[y] == 1 else f"t:{y}~{copies[y]}"
        for x in f.domain:
            assert fmap(f.functor, pf.h, pf.p.values[x]) == f.values[x]
        assert sum(copies.values()) == sum(n for e in f.functor.edges(
            list(f.values.values())) for _, n in e)


def test_a_nonempty_powerset_is_reported_at_its_domain_element():
    functor = parse_functor("Id^{a,b} . Pow")
    empty = FunVal((a, IdVal(SetVal())) for a in ("a", "b"))
    rng = random.Random(31)
    codomain = FiniteSet(("y0", "y1"))
    for _ in range(50):
        domain = FiniteSet(f"x{i}" for i in range(rng.randint(1, 4)))
        # most values are empty, so the first non-empty one is often not
        # the first element of the domain
        values = {x: generators.random_value(rng, functor, codomain)
                  if rng.random() < 0.3 else empty for x in domain}
        f = FMap(generators.shuffled(rng, domain), codomain, functor, values)
        bad = [x for x, ok in zip(f.domain, functor.precise(
            [values[x] for x in f.domain])) if not ok]
        if not bad:
            assert len(precise_factorize(f).middle) == 0
            continue
        with pytest.raises(PowNotPrecise) as caught:
            precise_factorize(f)
        assert str(caught.value) == (
            f"powerset value at {bad[0]!r} is non-empty; the powerset "
            "functor admits no precise factorization of it")
