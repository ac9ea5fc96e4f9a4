"""The whole-document scan agrees with the `Cursor` path.

`parse_spec` reads the rows of a document that are written with bare names
from one scan of the document, and every other body line by the `Cursor`
path.  Each seeded document below is parsed twice, with the scan on and
with it off (`specfile._row` gives no pattern), and both parses must give
the same object, the order of its carrier and of its structure included,
or the same error.  The documents are emitted objects, edited in the ways
the scan must hand on to the `Cursor` path or check itself: header lines
between body lines, blank and comment lines, tabs and trailing spaces,
quoted names among bare ones, `*0` and repeated members, repeated states,
keys, transitions and edge ids, and line breaks other than "\\n" inside a
line.  A 200,000-state chain is parsed within a time budget.
"""

from __future__ import annotations

import random
import re
import time

from coalg import (PartialDFA, PointedCoalgebra, emit_spec, parse_functor,
                   parse_spec)
from coalg import specfile
from coalg.functors import BARE

import generators

FUNCTORS = ("Bag", "Pow", "Bag . (Id x 2)", "Id x 2 x Bag", "Pow . (Id x Id)",
            "Id", "Id + 1")


def _outcome(text: str) -> str:
    """The parse of `text` as text: every field in order, or the error."""
    try:
        obj = parse_spec(text)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(obj, PointedCoalgebra):
        return repr((obj.functor, tuple(obj.carrier), obj.point,
                     tuple(obj.frontier), list(obj.structure.items())))
    if isinstance(obj, PartialDFA):
        return repr((tuple(obj.alphabet), tuple(obj.states),
                     sorted(obj.accepting), list(obj.delta.items()),
                     obj.initial))
    return repr((tuple(obj.vertices), obj.edges, obj.root))


def _documents(rng: random.Random) -> list[str]:
    docs = []
    for _ in range(25):
        docs.append(emit_spec(generators.random_shared_dag(rng, 10)))
        docs.append(emit_spec(generators.random_dfa(rng)))
        docs.append(emit_spec(generators.random_multigraph(rng)))
    for text in FUNCTORS * 4:
        c = generators.random_coalgebra(rng, max_states=6)
        f = parse_functor(text)
        docs.append(emit_spec(PointedCoalgebra(f, c.carrier, {
            x: generators.random_value(rng, f, c.carrier) for x in c.carrier},
            c.point)))
    return docs


def _is_head(line: str) -> bool:
    return line.partition(":")[0].strip() in specfile._KEYS


def _move_header(rng, lines):
    heads = [k for k, line in enumerate(lines) if _is_head(line)]
    line = lines.pop(rng.choice(heads))
    lines.insert(rng.randrange(len(lines) + 1), line)


def _blank(rng, lines):
    lines.insert(rng.randrange(len(lines) + 1), rng.choice(
        ("", "   ", "\t", "# a comment", "  # kind: dfa", "\xa0# x", "@ x")))


def _spacing(rng, lines):
    k = rng.randrange(len(lines))
    spaces = [m.start() for m in re.finditer(" ", lines[k])]
    if spaces and rng.random() < 0.7:
        at = rng.choice(spaces)
        lines[k] = lines[k][:at] + rng.choice(("\t", "  ", " \t")) + \
            lines[k][at + 1:]
    else:
        lines[k] += rng.choice((" ", "\t", " \t "))


def _quote(rng, lines):
    k = rng.randrange(len(lines))
    names = list(re.finditer(BARE, lines[k]))
    if names:
        m = rng.choice(names)
        lines[k] = f'{lines[k][:m.start()]}"{m.group()}"{lines[k][m.end():]}'


def _zero(rng, lines):
    k = rng.randrange(len(lines))
    if "*" in lines[k]:
        lines[k] = re.sub(r"\*[0-9]+", "*0", lines[k], count=1)
    elif "[" in lines[k]:
        lines[k] = re.sub(r"([\],])", r"*0\1", lines[k], count=1)


def _repeat(rng, lines):
    k = rng.randrange(len(lines))
    m = re.search(r"(\[|\{\|)([^,\]|]+)", lines[k])
    if m:
        lines[k] = (lines[k][:m.end(1)] + m.group(2) + ", "
                    + lines[k][m.end(1):])


def _twice(rng, lines):
    k = rng.randrange(len(lines))
    lines.insert(rng.randrange(k, len(lines)) + 1, lines[k])


def _line_break(rng, lines):
    k = rng.randrange(len(lines))
    at = rng.randrange(len(lines[k]) + 1)
    lines[k] = lines[k][:at] + rng.choice("\r\x0c\x85\u2028") + lines[k][at:]


EDITS = (_move_header, _blank, _spacing, _quote, _zero, _repeat, _twice,
         _line_break)


def _edited(rng: random.Random) -> list[str]:
    texts = []
    for text in _documents(rng):
        texts.append(text)
        for _ in range(6):
            lines = text.splitlines()
            for edit in rng.sample(EDITS, rng.randint(1, 3)):
                edit(rng, lines)
            texts.append("\n".join(lines) + rng.choice(("\n", "")))
    return texts


class Counted(specfile._Line):
    """A `_Line` that counts the lines it is made for."""

    __slots__ = ()
    made = 0

    def __init__(self, text, no=0):
        Counted.made += 1
        super().__init__(text, no)


def _outcomes(monkeypatch, texts: list[str]) -> tuple[list[str], int]:
    """The outcome of each text, and the number of lines given a `Cursor`."""
    Counted.made = 0
    with monkeypatch.context() as patch:
        patch.setattr(specfile, "_Line", Counted)
        return [_outcome(text) for text in texts], Counted.made


def test_the_scan_and_the_cursor_path_agree(monkeypatch):
    texts = _edited(random.Random(22))
    fast, fast_lines = _outcomes(monkeypatch, texts)
    monkeypatch.setattr(specfile, "_row", lambda kind, functor, known: None)
    slow, slow_lines = _outcomes(monkeypatch, texts)
    for text, a, b in zip(texts, fast, slow):
        assert a == b, text
    # both outcomes are common, and the scan reads most body lines
    errors = sum(out.startswith(("SpecFormatError", "ShapeError"))
                 for out in fast)
    assert len(texts) > 700 and 200 < errors < len(texts) - 200
    assert fast_lines < slow_lines * 0.75


def test_each_edit_keeps_the_outcome(monkeypatch):
    """One edit at a time, so that no edit hides behind an earlier error."""
    rng = random.Random(23)
    texts = []
    for text in _documents(rng):
        for edit in EDITS:
            lines = text.splitlines()
            edit(rng, lines)
            texts.append("\n".join(lines) + "\n")
    fast = [_outcome(text) for text in texts]
    monkeypatch.setattr(specfile, "_row", lambda kind, functor, known: None)
    assert fast == [_outcome(text) for text in texts]


def test_a_200k_state_chain_is_parsed_within_budget():
    n = 200_000
    text = ("kind: coalgebra\nfunctor: Bag\nstates: "
            + ", ".join(f"c{i}" for i in range(n)) + "\npoint: c0\n"
            + "".join(f"c{i} = [c{i + 1}]\n" for i in range(n - 1))
            + f"c{n - 1} = []\n")
    start = time.perf_counter()
    c = parse_spec(text)
    assert time.perf_counter() - start < 10
    assert len(c.carrier) == n and list(c.structure)[-1] == f"c{n - 1}"
    assert c.structure["c0"].entries == (("c1", 1),)
    assert c.structure[f"c{n - 1}"].entries == ()
