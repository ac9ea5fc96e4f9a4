from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalg import (
    BOTTOM,
    BagVal,
    ConstVal,
    Exponent,
    FiniteSet,
    FunVal,
    IdVal,
    Identity,
    PartialDFA,
    PointedCoalgebra,
    SetVal,
    SpecFormatError,
    TagVal,
    TupleVal,
    dfa_to_coalgebra,
    emit_spec,
    fmap,
    format_functor,
    format_value,
    parse_functor,
    parse_spec,
    parse_value,
    unravel,
)
from coalg import coalgebra, functors
from coalg.specfile import LINE_BREAKS

import generators
from conftest import FIXTURE_DIR, FIXTURE_NAMES, load_fixture

# names holding the delimiters of functor set literals and of spec values
ODD_NAMES = ("a b", "c,d", "{e}", "f:g", "h#i", "p|q", "r*s", "t=u", "(v)",
             "[w]", "@y", ";z", " lead", "x", "0", "1", BOTTOM, "^", ".", "+")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_every_fixture_round_trips(name):
    obj = load_fixture(name)
    assert parse_spec(emit_spec(obj)) == obj


def test_fixture_files_exist():
    assert len(FIXTURE_NAMES) >= 15
    assert (FIXTURE_DIR / "diamond_bag.spec").exists()


def test_comments_and_blank_lines_are_skipped():
    text = """
# a comment
kind: coalgebra

functor: Id
# another comment
states: p
point: p
p = @p
"""
    c = parse_spec(text)
    assert list(c.carrier) == ["p"]


def test_kind_defaults_to_coalgebra():
    c = parse_spec("functor: Id\nstates: p\npoint: p\np = @p\n")
    assert isinstance(c, PointedCoalgebra)


def test_quoted_names_allow_reserved_characters():
    c = PointedCoalgebra(parse_functor("Id"),
                         FiniteSet(("x 1", "a:b", "odd#name")),
                         {"x 1": IdVal("a:b"), "a:b": IdVal("odd#name"),
                          "odd#name": IdVal("x 1")},
                         "x 1")
    text = emit_spec(c)
    assert '"x 1"' in text
    assert parse_spec(text) == c


def test_line_breaks_are_exactly_what_splitlines_splits_at():
    assert LINE_BREAKS == {chr(i) for i in range(0x110000)
                           if len(f"a{chr(i)}b".splitlines()) > 1}


@pytest.mark.parametrize("brk", sorted(LINE_BREAKS))
def test_names_holding_line_breaks_are_not_emitted(brk):
    name = f"a{brk}b"
    state = PointedCoalgebra(parse_functor("Id"), FiniteSet((name,)),
                             {name: IdVal(name)}, name)
    f = Exponent(Identity(), FiniteSet((name, "c")))
    letter = PointedCoalgebra(f, FiniteSet(("p",)),
                              {"p": FunVal(((name, IdVal("p")),
                                            ("c", IdVal("p"))))}, "p")
    dfa = PartialDFA(FiniteSet((name,)), FiniteSet(("q",)), frozenset(),
                     {("q", name): "q"}, "q")
    # an edge id is written on its edge line alone
    graph = coalgebra.Multigraph(FiniteSet(("v",)),
                                 (coalgebra.Edge(name, "v", "v"),), "v")
    # the message names the first line holding the break
    quoted = functors.quote_name(name)
    for obj, line in ((state, f"states: {quoted}"),
                      (letter, f"functor: Id^{{{quoted},c}}"),
                      (dfa, f"alphabet: {quoted}"),
                      (graph, f"edge {quoted} v v")):
        with pytest.raises(SpecFormatError) as exc:
            emit_spec(obj)
        assert str(exc.value) == (f"cannot write {line!r}: a name in it "
                                  "holds a line break")
    # a functor expression alone is one string, not a document
    assert parse_functor(format_functor(f)) == f


def test_open_coalgebras_round_trip(two_cycle):
    truncated = unravel(two_cycle, 2).tree
    assert len(truncated.frontier) == 1
    again = parse_spec(emit_spec(truncated))
    assert again == truncated
    assert not again.is_total()


@pytest.mark.parametrize("functor,text,value", [
    ("Id", "@p", IdVal("p")),
    ("1", "#⊥", ConstVal(BOTTOM)),
    ("Id x Id + 1", "0: (@p, @q)", TagVal(0, TupleVal((IdVal("p"),
                                                       IdVal("q"))))),
    ("Id^{a,b}", "{a: @p, b: @q}", FunVal((("a", IdVal("p")),
                                           ("b", IdVal("q"))))),
    ("Bag", "[p*2, q*1]", BagVal((("p", 2), ("q", 1)))),
    ("Bag", "[]", BagVal(())),
    ("Pow", "{|p, q|}", SetVal(("p", "q"))),
    ("Pow", "{||}", SetVal(())),
    ("Bag . Pow", "[{|p|}*2, {||}*1]",
     BagVal(((SetVal(("p",)), 2), (SetVal(()), 1)))),
])
def test_parse_value_cases(functor, text, value):
    f = parse_functor(functor)
    assert parse_value(f, text) == value
    assert parse_value(f, format_value(f, value)) == value


def test_bag_multiplicity_defaults_to_one():
    assert parse_value(parse_functor("Bag"), "[p, q*2]") == \
        BagVal((("p", 1), ("q", 2)))


def test_value_errors_carry_line_numbers():
    with pytest.raises(SpecFormatError, match="line 4"):
        parse_spec("functor: Id\nstates: p\npoint: p\np = @q\n")


@pytest.mark.parametrize("text,needle", [
    ("functor: Id\nstates: p\npoint: q\np = @p\n", "point"),
    ("functor: Id\nstates: p\npoint: p\n", "p"),
    ("functor: Id\nstates: p\npoint: p\np = @p\np = @p\n", "duplicate"),
    ("kind: nonsense\n", "kind"),
    ("functor: Id\nfunctor: Id\nstates: p\npoint: p\np = @p\n", "duplicate"),
    ("states: p\npoint: p\np = @p\n", "functor"),
    ("functor: Id x\nstates: p\npoint: p\n", "functor"),
    ("functor: Id\nstates: p\npoint: p\np = @p trailing\n", "trailing"),
    ("functor: Id^{a,b}\nstates: p\npoint: p\np = {a: @p}\n", "b"),
    ("functor: Id + 1\nstates: p\npoint: p\np = 7: @p\n", "7"),
], ids=["point-outside", "missing-structure", "duplicate-state",
        "unknown-kind", "duplicate-key", "missing-functor", "bad-grammar",
        "trailing-junk", "missing-letter", "bad-tag"])
def test_malformed_documents_are_rejected(text, needle):
    with pytest.raises(SpecFormatError) as err:
        parse_spec(text)
    assert needle in str(err.value)


def test_dfa_documents_reject_duplicate_transitions():
    text = ("kind: dfa\nalphabet: a\nstates: q0\ninitial: q0\n"
            "trans q0 a q0\ntrans q0 a q0\n")
    with pytest.raises(SpecFormatError, match="duplicate"):
        parse_spec(text)


def test_multigraph_documents_reject_unknown_vertices():
    text = ("kind: multigraph\nvertices: a\nroot: a\n"
            "edge e1 a nowhere\n")
    with pytest.raises(SpecFormatError):
        parse_spec(text)


def test_wrong_keys_for_the_kind_are_rejected():
    text = "kind: dfa\nfunctor: Id\nstates: q0\ninitial: q0\n"
    with pytest.raises(SpecFormatError):
        parse_spec(text)


def test_functor_literals_quote_names_holding_delimiters():
    f = Exponent(Identity(), FiniteSet(("a=b", "a b", "c")))
    assert format_functor(f) == 'Id^{"a=b","a b",c}'
    assert parse_functor(format_functor(f)) == f
    # names without a delimiter print bare, as they always have
    assert format_functor(parse_functor("Id^{a:b,c.d,e#f}")) == \
        "Id^{a:b,c.d,e#f}"


def test_dfa_with_odd_letters_unravels_and_round_trips():
    d = PartialDFA(FiniteSet(("a b", "c")), FiniteSet(("q0", "q1")),
                   frozenset({"q1"}), {("q0", "a b"): "q1", ("q1", "c"): "q1"},
                   "q0")
    assert parse_spec(emit_spec(d)) == d
    tree = unravel(dfa_to_coalgebra(d), 3).tree
    assert 'functor: 2 x (Id + 1)^{"a b",c}' in emit_spec(tree)
    assert parse_spec(emit_spec(tree)) == tree


# every object kind the spec format writes; coalgebras over every
# constructor (functors three deep), with open states
DRAWS = {
    "coalgebra": lambda rng: generators.random_coalgebra(rng, depth=3,
                                                         open_states=True),
    "dfa": generators.random_dfa,
    "acyclic dfa": generators.random_acyclic_dfa,
    "multigraph": generators.random_multigraph,
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DRAWS)),
       st.integers(min_value=0, max_value=2**32).map(random.Random))
def test_emitted_documents_parse_back_to_the_same_object(kind, rng):
    x = DRAWS[kind](rng)
    assert parse_spec(emit_spec(x)) == x


def test_random_documents_with_odd_names_round_trip():
    rng = random.Random(31)
    for _ in range(300):
        letters = tuple(rng.sample(ODD_NAMES, 3))
        f = generators.random_functor(rng, depth=3, letters=letters)
        assert parse_functor(format_functor(f)) == f
        c = generators.random_coalgebra(rng, open_states=True, letters=letters)
        tag = rng.choice(ODD_NAMES)
        ren = {x: f"{x}{tag}" for x in c.carrier}
        c = PointedCoalgebra(
            c.functor, FiniteSet(ren[x] for x in c.carrier),
            {ren[x]: fmap(c.functor, ren, v) for x, v in c.structure.items()},
            ren[c.point], FiniteSet(ren[x] for x in c.frontier))
        assert parse_spec(emit_spec(c)) == c


@pytest.fixture
def value_checks(monkeypatch):
    """The values handed to `validate_value`, wherever it is called from."""
    seen: list[object] = []

    def counted(functor, value, carrier=None,
                original=functors.validate_value):
        seen.append(value)
        return original(functor, value, carrier)

    monkeypatch.setattr(functors, "validate_value", counted)
    monkeypatch.setattr(coalgebra, "validate_value", counted)
    return seen


def dfa_shaped() -> PointedCoalgebra:
    d = PartialDFA(FiniteSet(("a", "b")), FiniteSet(("q0", "q1", "q2")),
                   ("q2",), {("q0", "a"): "q1", ("q1", "b"): "q2",
                             ("q2", "a"): "q0"}, "q0")
    return dfa_to_coalgebra(d)


@pytest.mark.parametrize("functor", generators.DAG_FUNCTORS[:2])
def test_valid_documents_are_parsed_without_a_second_value_check(
        value_checks, functor):
    rng = random.Random(61)
    draws = [generators.random_shared_dag(rng, max_states=10, functor=functor)
             for _ in range(30)]
    value_checks.clear()
    parsed = [parse_spec(emit_spec(c)) for c in draws]
    assert value_checks == []
    assert parsed == draws


def test_a_valid_dfa_shaped_document_is_parsed_without_a_second_check(
        value_checks):
    c = dfa_shaped()
    parsed = parse_spec(emit_spec(c))
    assert value_checks == []
    assert parsed == c


BAD_CONSTANT = ("functor: 2 x Id\nstates: p, q\npoint: p\n"
                "p = (#5, @q)\nq = (#0, @p)\n")


def test_a_constant_outside_its_set_is_reported_as_before(value_checks):
    with pytest.raises(SpecFormatError) as err:
        parse_spec(BAD_CONSTANT)
    assert str(err.value) == "value.0: '5' not in constant set {0,1}"
    assert value_checks


def test_a_later_syntax_error_wins_over_a_constant_outside_its_set():
    with pytest.raises(SpecFormatError) as err:
        parse_spec(BAD_CONSTANT.replace("q = (#0, @p)", "q = (#0, @x)"))
    assert str(err.value) == "line 5: state 'x' not in the carrier"


def test_the_first_bad_constant_in_carrier_order_is_reported():
    text = ("functor: 2 x Id\nstates: p, q\npoint: p\n"
            "q = (#7, @p)\np = (#5, @q)\n")
    with pytest.raises(SpecFormatError) as err:
        parse_spec(text)
    assert str(err.value) == "value.0: '5' not in constant set {0,1}"


def test_a_missing_state_before_a_bad_constant_is_reported_first():
    text = "functor: 2 x Id\nstates: p, q\npoint: p\nq = (#7, @p)\n"
    with pytest.raises(SpecFormatError) as err:
        parse_spec(text)
    assert str(err.value) == "no structure for state 'p'"
