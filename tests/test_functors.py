from __future__ import annotations

import random
import time

import pytest

from coalg import (
    BOTTOM,
    Bag,
    BagVal,
    Compose,
    Const,
    ConstVal,
    Coproduct,
    Exponent,
    FiniteSet,
    FunVal,
    FunctorSyntaxError,
    IdVal,
    Identity,
    Pow,
    Product,
    SetVal,
    ShapeError,
    SpecFormatError,
    TagVal,
    TupleVal,
    format_functor,
    fmap,
    fvalue_equal,
    iter_slots,
    leaf_count,
    map_members,
    parse_functor,
    used_states,
    validate_value,
)
from coalg.functors import MAX_FUNCTOR_DEPTH

import generators


def test_numeral_one_is_the_bottom_singleton():
    assert parse_functor("1") == Const(FiniteSet((BOTTOM,)))


def test_numerals_expand_to_digit_string_sets():
    assert parse_functor("3") == Const(FiniteSet(("0", "1", "2")))
    assert parse_functor("2") == Const(FiniteSet(("0", "1")))


def test_product_binds_tighter_than_coproduct():
    f = parse_functor("Id x Id + 1")
    assert isinstance(f, Coproduct)
    assert f.summands[0] == Product((Identity(), Identity()))
    assert f.summands[1] == Const(FiniteSet((BOTTOM,)))


def test_coproduct_chain_is_flat():
    f = parse_functor("{a} + {b} + Id x Id")
    assert isinstance(f, Coproduct)
    assert len(f.summands) == 3


@pytest.mark.parametrize("text", [
    "Id",
    "Bag",
    "Pow",
    "{a,b,c}",
    "Id x Id + 1",
    "2 x (Id + 1)^{a,b}",
    "Bag . Pow",
    "Id^{a} . Bag",
    "(Id + {stop}) x Bag",
])
def test_format_parse_round_trip(text):
    f = parse_functor(text)
    assert parse_functor(format_functor(f)) == f


def test_random_functors_round_trip_through_the_grammar():
    rng = random.Random(11)
    for _ in range(200):
        f = generators.random_functor(rng, depth=3)
        assert parse_functor(format_functor(f)) == f


@pytest.mark.parametrize("text", ["", "Id x", "Id ^ Id", "{a", "Foo", "0"])
def test_bad_grammar_raises(text):
    with pytest.raises(FunctorSyntaxError):
        parse_functor(text)


@pytest.mark.parametrize("blank", ["\x85", "\u2028", "\u3000", "\t\x0b"])
def test_any_whitespace_separates_functor_tokens(blank):
    text = "Bag . (Id x 2) + Id^{a,b}"
    spaced = text.replace(" ", blank)
    assert blank in spaced
    assert parse_functor(spaced) == parse_functor(text)
    assert parse_functor(blank + "Id" + blank) == Identity()


def test_fmap_preserves_identities_and_composition():
    rng = random.Random(23)
    xs = FiniteSet(("p", "q", "r"))
    ys = FiniteSet(("u", "v"))
    zs = FiniteSet(("k", "l", "m"))
    for _ in range(150):
        f = generators.random_functor(rng, depth=2)
        v = generators.random_value(rng, f, xs)
        assert fmap(f, {x: x for x in xs}, v) == v
        g = {x: rng.choice(list(ys)) for x in xs}
        h = {y: rng.choice(list(zs)) for y in ys}
        composed = {x: h[g[x]] for x in xs}
        assert fmap(f, composed, v) == fmap(f, h, fmap(f, g, v))


def test_fmap_shrinks_used_states_along_the_map():
    rng = random.Random(29)
    xs = FiniteSet(("p", "q", "r", "s"))
    ys = FiniteSet(("u", "v", "w"))
    for _ in range(150):
        f = generators.random_functor(rng, depth=2)
        v = generators.random_value(rng, f, xs)
        g = {x: rng.choice(list(ys)) for x in xs}
        used = used_states(f, v).as_set()
        mapped = used_states(f, fmap(f, g, v)).as_set()
        assert mapped <= {g[x] for x in used}
        if len({g[x] for x in used}) == len(used):  # injective on used
            assert mapped == {g[x] for x in used}


def test_used_states_and_leaf_count():
    f = parse_functor("Id x Id + 1")
    v = TagVal(0, TupleVal((IdVal("q"), IdVal("q"))))
    assert list(used_states(f, v)) == ["q"]
    assert leaf_count(f, v) == 2
    assert leaf_count(f, TagVal(1, ConstVal(BOTTOM))) == 0


def test_used_states_threads_through_composition():
    f = Compose(Bag(), Product((Identity(), Identity())))
    v = BagVal(((TupleVal((IdVal("a"), IdVal("b"))), 2),))
    assert used_states(f, v).as_set() == {"a", "b"}
    assert leaf_count(f, v) == 4


def test_validate_value_rejects_wrong_shapes():
    f = parse_functor("Id x Id + 1")
    with pytest.raises(ShapeError):
        validate_value(f, TagVal(2, ConstVal(BOTTOM)))
    with pytest.raises(ShapeError):
        validate_value(f, TupleVal((IdVal("q"), IdVal("q"))))
    with pytest.raises(ShapeError):
        validate_value(f, TagVal(1, ConstVal("nope")))
    with pytest.raises(ShapeError):
        validate_value(f, TagVal(0, TupleVal((IdVal("q"),))))


def test_validate_value_checks_carrier_membership():
    carrier = FiniteSet(("p",))
    validate_value(Identity(), IdVal("p"), carrier)
    with pytest.raises(ShapeError):
        validate_value(Identity(), IdVal("q"), carrier)


def test_validate_value_checks_exponent_letters():
    f = Exponent(Identity(), FiniteSet(("a", "b")))
    validate_value(f, FunVal((("a", IdVal("p")), ("b", IdVal("p")))))
    with pytest.raises(ShapeError):
        validate_value(f, FunVal((("a", IdVal("p")),)))


def test_bags_merge_and_drop_zeroes():
    v = BagVal((("q", 1), ("q", 2), ("r", 0)))
    assert v.multiplicity("q") == 3
    assert v.multiplicity("r") == 0
    assert v.total() == 3
    assert v == BagVal((("q", 3),))
    with pytest.raises(ValueError):
        BagVal((("q", -1),))


def test_sets_deduplicate():
    assert SetVal(("q", "q", "r")) == SetVal(("r", "q"))


def test_exponent_values_compare_pointwise():
    a = FunVal((("a", IdVal("p")), ("b", IdVal("q"))))
    b = FunVal((("b", IdVal("q")), ("a", IdVal("p"))))
    assert a == b
    assert a["a"] == IdVal("p")


def test_wide_exponent_values_validate_and_map_in_linear_time():
    # letters are looked up by index: at 4,000 letters a linear scan per
    # lookup makes validate + two fmaps take about half a second
    letters = FiniteSet(f"a{i}" for i in range(4000))
    f = Exponent(Identity(), letters)
    v = FunVal((a, IdVal("pq"[i % 2])) for i, a in enumerate(letters))
    swap = {"p": "q", "q": "p"}
    start = time.perf_counter()
    validate_value(f, v, FiniteSet(("p", "q")))
    w = fmap(f, swap, v)
    back = fmap(f, swap, w)
    assert time.perf_counter() - start < 0.3
    assert w != v and back == v and hash(back) == hash(v)
    assert w.letters() == v.letters() == tuple(letters)
    assert v["a1"] == w["a0"] == IdVal("q")
    with pytest.raises(KeyError):
        v["b"]


def test_shape_errors_name_functors_whose_letters_hold_line_breaks():
    f = Exponent(Identity(), FiniteSet(("a\nb", "c")))
    with pytest.raises(ShapeError, match="expected FunVal"):
        validate_value(f, IdVal("p"), FiniteSet(("p",)))


def test_shape_errors_name_functors_whose_letters_hold_double_quotes():
    f = Exponent(Identity(), FiniteSet(('"ab', "c")))
    with pytest.raises(ShapeError, match="expected FunVal"):
        validate_value(f, IdVal("p"), FiniteSet(("p",)))
    assert f.describe() == """Id^{'"ab',c}"""
    assert Compose(Bag(), Const(FiniteSet(('"x', 'y"z', "z,w")))).describe() \
        == """Bag . {'"x',y"z,"z,w"}"""


def test_parse_functor_bounds_the_nesting_depth():
    deepest = " . ".join(["Bag"] * (MAX_FUNCTOR_DEPTH - 1) + ["Id"])
    assert format_functor(parse_functor(deepest)) == deepest
    with pytest.raises(FunctorSyntaxError, match="deeper than"):
        parse_functor("Bag . " + deepest)
    with pytest.raises(FunctorSyntaxError, match="deeper than"):
        parse_functor("Id" + "^{a}" * MAX_FUNCTOR_DEPTH)
    parens = MAX_FUNCTOR_DEPTH
    assert parse_functor("(" * parens + "Id" + ")" * parens) == Identity()
    with pytest.raises(FunctorSyntaxError, match="nested parentheses"):
        parse_functor("(" * (parens + 1) + "Id" + ")" * (parens + 1))
    with pytest.raises(FunctorSyntaxError, match="nested parentheses"):
        parse_functor("(" * 5000 + "Id" + ")" * 5000)


def test_fvalue_equal_shape_checks_both_sides():
    f = Pow()
    assert fvalue_equal(f, SetVal(("q", "q")), SetVal(("q",)))
    with pytest.raises(ShapeError):
        fvalue_equal(f, SetVal(("q",)), IdVal("q"))


def test_member_maps_reject_wrong_shapes():
    f = parse_functor("Id x Id + 1")
    short = TagVal(0, TupleVal((IdVal("q"),)))
    with pytest.raises(ShapeError):
        fmap(f, {"q": "p"}, short)
    with pytest.raises(ShapeError):
        list(iter_slots(f, short))
    with pytest.raises(ShapeError):
        map_members(f, TagVal(-1, ConstVal(BOTTOM)), lambda m: m)
    with pytest.raises(ShapeError):
        leaf_count(f, TagVal(2, ConstVal(BOTTOM)))
    with pytest.raises(ShapeError):
        used_states(Bag(), SetVal(("q",)))


def test_set_literal_names_opening_with_a_quote_are_quoted_names():
    with pytest.raises(FunctorSyntaxError, match="unterminated quoted name"):
        parse_functor('{"x,y}')
    assert parse_functor('{"x,y"}') == Const(FiniteSet(("x,y",)))
    with pytest.raises(SpecFormatError, match="double quote"):
        format_functor(Const(FiniteSet(('"x', "y"))))
