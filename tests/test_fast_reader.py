"""The whole-document scan of spec-file body lines.

A coalgebra document's body rows are found by one pattern built from its
functor (`specfile._row`), `trans` and `edge` rows by one fixed pattern
each, and their values are built column-wise; the `Cursor` path reads every
line the scan declines.  These tests pin that the scan covers what
`emit_spec` writes with bare names, that its results equal the `Cursor`
path's, and that every other line falls back with the same outcome.
"""

from __future__ import annotations

import hashlib
import random
import time

import pytest

from coalg import (CoalgebraError, PointedCoalgebra, emit_spec, parse_functor,
                   parse_spec)
from coalg import specfile

import generators

# functors whose body lines the reader covers, and some it declines
COVERED = ("Bag", "Pow", "Bag . (Id x 2)", "Id", "2", "Id x 2 x Bag",
           "Pow . (Id x Id)", "Bag . Id")
DECLINED = ("Bag . Bag", "Bag . Pow", "Pow . (Bag x 1)", "Id + 1", "Id^{a}")


def _cursor_only(monkeypatch):
    """Turn the scan off, so that every body line takes the `Cursor` path:
    no row pattern for any kind of document."""
    monkeypatch.setattr(specfile, "_row", lambda kind, functor, known: None)


class Counted(specfile._Line):
    """A `_Line` that notes the number of each line it is made for."""

    __slots__ = ()
    made: list[int] = []

    def __init__(self, text, no=0):
        Counted.made.append(no)
        super().__init__(text, no)


def _cursor_lines(monkeypatch, text: str):
    """The parse of `text`, and the numbers of the lines given a `Cursor`."""
    Counted.made = []
    with monkeypatch.context() as patch:
        patch.setattr(specfile, "_Line", Counted)
        obj = parse_spec(text)
    return obj, Counted.made


def _outcome(text: str) -> str:
    try:
        obj = parse_spec(text)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(emit_spec(obj).encode("utf-8")).hexdigest()


def _documents() -> list[str]:
    """Emitted documents of seeded random objects with bare names."""
    rng = random.Random(16)
    docs = []
    for _ in range(60):
        docs.append(emit_spec(generators.random_shared_dag(rng, 12)))
        docs.append(emit_spec(generators.random_coalgebra(
            rng, max_states=6, open_states=True)))
        docs.append(emit_spec(generators.random_dfa(rng)))
        docs.append(emit_spec(generators.random_multigraph(rng)))
    for text in COVERED * 5:
        c = generators.random_coalgebra(rng, max_states=6)
        f = parse_functor(text)
        docs.append(emit_spec(PointedCoalgebra(f, c.carrier, {
            x: generators.random_value(rng, f, c.carrier) for x in c.carrier},
            c.point)))
    return docs


def _body(text: str) -> list[str]:
    return [line for line in text.splitlines()
            if line.partition(":")[0].strip() not in specfile._KEYS]


def _covered(obj) -> bool:
    return not isinstance(obj, PointedCoalgebra) or specfile._row(
        "coalgebra", obj.functor, set()) is not None


@pytest.mark.parametrize("text", COVERED)
def test_the_reader_is_built_for_covered_functors(text):
    assert specfile._row("coalgebra", parse_functor(text), set()) is not None


@pytest.mark.parametrize("text", DECLINED)
def test_a_listing_inside_a_listing_and_other_shapes_are_declined(text):
    assert specfile._row("coalgebra", parse_functor(text), set()) is None


def test_every_emitted_body_line_is_read_without_a_cursor(monkeypatch):
    """Only header lines get a `Cursor`: every body line that `emit_spec`
    writes with bare names is read by the document's pattern."""
    docs = [text for text in _documents() if _covered(parse_spec(text))]
    assert len(docs) > 200
    for text in docs:
        _, made = _cursor_lines(monkeypatch, text)
        body_lines = [no for no, line in enumerate(text.splitlines(), 1)
                      if line in _body(text)]
        assert not set(made) & set(body_lines), text


def test_the_coalgebra_reader_accepts_every_emitted_value_line(monkeypatch):
    docs = [text for text in _documents()
            if isinstance(parse_spec(text), PointedCoalgebra)
            and _covered(parse_spec(text))]
    assert len(docs) > 100
    fast = []
    for text in docs:
        obj, made = _cursor_lines(monkeypatch, text)
        assert max(made) <= len(text.splitlines()) - len(_body(text)), text
        fast.append(obj.structure)
    _cursor_only(monkeypatch)
    assert fast == [parse_spec(text).structure for text in docs]


def test_results_equal_the_cursor_path(monkeypatch):
    docs = _documents()
    fast = [parse_spec(text) for text in docs]
    fast_bytes = [emit_spec(obj) for obj in fast]
    _cursor_only(monkeypatch)
    slow = [parse_spec(text) for text in docs]
    assert fast == slow
    assert fast_bytes == [emit_spec(obj) for obj in slow]


# lines the reader must decline, each next to a header that makes it the
# only body line of its document
ODD_LINES = (
    ('functor: Bag\nstates: p, "q r"\npoint: p\n', 'p = [p*2, "q r"]'),
    ("functor: Bag\nstates: p, q\npoint: p\n", 'p = ["p"*2, q]'),
    ("functor: Bag\nstates: p, q\npoint: p\n", "p = [p*0, q]"),
    ("functor: Bag\nstates: p, q\npoint: p\n", "p = [p*٣, q]"),
    ("functor: Bag\nstates: p, q\npoint: p\n", "p = [p*1٣, q]"),
    ("functor: Bag\nstates: p, q\npoint: p\n", "p = [p, q, p*2]"),
    ("functor: Bag\nstates: p, q\npoint: p\n", "p = [p, r]"),
    ("functor: Bag\nstates: p, q\npoint: p\n", "p = [p, q,]"),
    ("functor: Bag\nstates: p, q\npoint: p\n", "p = [p q]"),
    ("functor: Bag\nstates: p, q\npoint: p\n", "p = [p*2x]"),
    ("functor: Bag\nstates: p, q\npoint: p\n", "p = [p*" + "9" * 5000 + "]"),
    ("functor: Pow\nstates: p, q\npoint: p\n", "p = {|p, r|}"),
    ("functor: Pow\nstates: p, q\npoint: p\n", "p = {|p, q, p|}"),
    ("functor: Bag . (Id x 2)\nstates: p\npoint: p\n", "p = [(@p, #2)]"),
    ("functor: Bag . (Id x 2)\nstates: p\npoint: p\n", "p = [(@p, #0, #1)]"),
    ("functor: Bag . (Id x 2)\nstates: p\npoint: p\n",
     "p = [(@p, #0), (@p,#0)]"),
    ("functor: Id x Bag\nstates: p\npoint: p\n", "p = (@p, [p]"),
)


@pytest.mark.parametrize("head, line", ODD_LINES)
def test_odd_lines_fall_back_with_the_cursor_paths_outcome(
        monkeypatch, head, line):
    text = head + line + "\n"
    try:
        _, made = _cursor_lines(monkeypatch, text)
    except CoalgebraError:
        made = Counted.made
    assert 4 in made  # the body line, after three header lines
    fast = _outcome(text)
    _cursor_only(monkeypatch)
    assert fast == _outcome(text)


@pytest.mark.parametrize("line", [
    "p = [p*100, q]", "p = [p*007, q*1]", "p\t=[ p * 2 ,\tq ]\t",
    "p = []", "p = [q]",
])
def test_other_spellings_of_bare_names_are_read_alike(monkeypatch, line):
    head = "functor: Bag\nstates: p, q\npoint: p\n"
    text = head + line + "\nq = []\n"
    fast, made = _cursor_lines(monkeypatch, text)
    assert max(made) == 3  # only the header lines
    _cursor_only(monkeypatch)
    assert fast.structure["p"] == parse_spec(text).structure["p"]


def test_a_line_the_reader_declines_leaves_the_others_to_it(monkeypatch):
    """The fallback is per line: one `*0` among many lines sends that line
    alone to the `Cursor` path."""
    lines = [f"s{i} = [s{(i + 1) % 300}*2, s{(i + 7) % 300}]"
             for i in range(300)]
    lines[150] = "s150 = [s151*0, s157]"
    text = ("functor: Bag\nstates: " + ", ".join(f"s{i}" for i in range(300))
            + "\npoint: s0\n" + "\n".join(lines) + "\n")
    c, made = _cursor_lines(monkeypatch, text)
    assert [no for no in made if no > 3] == [154]
    assert c.structure["s150"].entries == (("s157", 1),)


@pytest.mark.parametrize("text", [
    "functor: Bag\nstates: p, q\npoint: p\nr = [p]\n",
    "functor: Bag\nstates: p, q\npoint: p\np = [q]\np = [p]\n",
    "functor: Pow\nstates: p, q\npoint: p\np = {|p, q|}\nq = {|q, q|}\n",
])
def test_state_checks_and_repeated_members_keep_their_outcome(
        monkeypatch, text):
    fast = _outcome(text)
    _cursor_only(monkeypatch)
    assert fast == _outcome(text)


def test_mutated_documents_keep_the_cursor_paths_outcome(monkeypatch):
    """One edit next to a token of one line (a reserved character, a quote,
    a non-ASCII digit, `*0`, a state outside the carrier) changes nothing
    between the two paths, error messages included."""
    rng = random.Random(7)
    inserts = (*' \t"#@(){}[]|*:,=', "٣", "*0", "x", "\xa0", "s9")
    texts = []
    for text in _documents():
        lines = text.splitlines()
        for _ in range(3):
            k = rng.randrange(len(lines))
            at = rng.randrange(len(lines[k]) + 1)
            edited = list(lines)
            edited[k] = lines[k][:at] + rng.choice(inserts) + lines[k][at:]
            texts.append("\n".join(edited) + "\n")
    fast = [_outcome(text) for text in texts]
    _cursor_only(monkeypatch)
    assert fast == [_outcome(text) for text in texts]


def _long_bag(last: str) -> str:
    n = 100_000
    states = ", ".join(f"s{i}" for i in range(n))
    slots = ", ".join(f"s{i}*2" for i in range(1, n - 1))
    return (f"functor: Bag\nstates: {states}\npoint: s0\n"
            f"s0 = [{slots}, {last}\n" + "".join(
                f"s{i} = []\n" for i in range(1, n)))


@pytest.mark.parametrize("last, message", [
    ("s99999*2]", None),
    ("s99999*2x]", "line 4: expected ',', found 'x'"),
    ("s99999*2", "line 4: expected ',', found 'end of line'"),
])
def test_a_line_of_100k_slots_is_read_in_linear_time(last, message):
    """The patterns cannot backtrack far: a line of 100k slots is read, or
    refused with the `Cursor` path's message, within a small budget."""
    text = _long_bag(last)
    start = time.perf_counter()
    if message is None:
        c = parse_spec(text)
        assert len(c.structure["s0"].entries) == 99_999
        assert c.structure["s0"].total() == 199_998
    else:
        with pytest.raises(Exception) as exc:
            parse_spec(text)
        assert str(exc.value) == message
    assert time.perf_counter() - start < 20
