"""The exact bytes `emit_spec` and `to_dot` write for names that need
quoting or escaping, and the garbage a parse leaves behind.

Each name is written from one table per document, in carrier order; these
texts pin that table's output, so they must not depend on the hash seed.
"""

import gc

import pytest

from coalg.automata import PartialDFA
from coalg.base import FiniteSet, SpecFormatError
from coalg.coalgebra import Edge, Multigraph, PointedCoalgebra
from coalg.dot import to_dot
from coalg.functors import BagVal, parse_functor
from coalg.specfile import emit_spec, parse_spec

from conftest import FIXTURE_DIR

PAIRS = '''\
kind: coalgebra
functor: Bag . (Id x 2)
states: "1:a", "a b", "x,y"
point: "1:a"
open: "x,y"
"1:a" = [(@"a b", #0)*1, (@"x,y", #1)*2]
"a b" = [(@"1:a", #1)*1]
'''

EXPONENT = '''\
kind: coalgebra
functor: Id^{u,"v w"}
states: "1:a", "a b", "x,y"
point: "1:a"
open: "x,y"
"1:a" = {u: @"a b", "v w": @"x,y"}
"a b" = {u: @"1:a", "v w": @"a b"}
'''

GRAPH_DOT = '''\
digraph {
  rankdir=LR;
  "__start" [shape=none, label=""];
  "1:a";
  "a b";
  "x,y" [style=dashed];
  "__start" -> "1:a";
  "1:a" -> "a b";
  "1:a" -> "x,y";
  "a b" -> "1:a";
'''


@pytest.mark.parametrize("text, dot", [
    (PAIRS, GRAPH_DOT + "}\n"),
    (EXPONENT, GRAPH_DOT + '  "a b" -> "a b";\n}\n'),
])
def test_quoted_names_are_written_exactly(text, dot):
    c = parse_spec(text)
    assert emit_spec(c) == text
    assert to_dot(c) == dot


def test_dot_escapes_quotes_and_backslashes_and_avoids_start():
    bag = PointedCoalgebra(
        parse_functor("Bag"), FiniteSet(("__start", 'a"b', "c\\d")),
        {"__start": BagVal((('a"b', 1), ("c\\d", 2))),
         'a"b': BagVal((("c\\d", 1),)), "c\\d": BagVal(())}, "__start")
    assert to_dot(bag) == r'''digraph {
  rankdir=LR;
  "__start~2" [shape=none, label=""];
  "__start";
  "a\"b";
  "c\\d";
  "__start~2" -> "__start";
  "__start" -> "a\"b";
  "__start" -> "c\\d" [label="×2"];
  "a\"b" -> "c\\d";
}
'''
    graph = Multigraph(FiniteSet(("__start", "p\\q")),
                       (Edge('e"1', "__start", "p\\q"),
                        Edge("e\\2", "p\\q", "p\\q")), "__start")
    assert to_dot(graph) == r'''digraph {
  rankdir=LR;
  "__start~2" [shape=none, label=""];
  "__start";
  "p\\q";
  "__start~2" -> "__start";
  "__start" -> "p\\q" [label="e\"1"];
  "p\\q" -> "p\\q" [label="e\\2"];
}
'''
    dfa = PartialDFA(FiniteSet(('a"', "b\\")), FiniteSet(("__start", 'q"1')),
                     frozenset({'q"1'}), {("__start", 'a"'): 'q"1',
                                          ('q"1', "b\\"): "__start"},
                     "__start")
    assert to_dot(dfa) == r'''digraph {
  rankdir=LR;
  "__start~2" [shape=none, label=""];
  "__start";
  "q\"1" [shape=doublecircle];
  "__start~2" -> "__start";
  "__start" -> "q\"1" [label="a\""];
  "q\"1" -> "__start" [label="b\\"];
}
'''
    with pytest.raises(SpecFormatError,
                       match="""^name 'a"b' contains a double quote$"""):
        emit_spec(bag)


# written with bare names, so read by the document's scan (`specfile._row`);
# the listing `[q, q]` repeats an item, so the rows are read again one by one
DOCUMENTS = {
    **{path.stem: path.read_text(encoding="utf-8")
       for path in sorted(FIXTURE_DIR.glob("*.spec"))},
    "bare-pairs": "functor: Bag . (Id x 2)\nstates: r, p, q\npoint: r\n"
                  "r = [(@p, #0)*2, (@q, #1)]\np = [(@q, #0), (@q, #1)]\n"
                  "q = []\n",
    "bare-bag": "functor: Bag\nstates: r, p, q\npoint: r\n"
                "r = [p*2, q]\np = [q, q]\nq = []\n"}


@pytest.mark.parametrize("text", DOCUMENTS.values(), ids=DOCUMENTS)
def test_a_parse_leaves_no_reference_cycle(text):
    gc.collect()
    gc.disable()
    try:
        obj = parse_spec(text)
        del obj
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
