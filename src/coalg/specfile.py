"""Plain-text spec files for coalgebras, partial DFAs, and multigraphs.

A document is a handful of `key: ...` header lines followed by body lines;
the `kind:` header (default "coalgebra") selects the layout:

    kind: coalgebra          kind: dfa                kind: multigraph
    functor: Id x Id + 1     alphabet: a, b           vertices: r, p
    states: p, q, r          states: q0, q1           root: r
    point: p                 initial: q0              edge e1 r p
    open: r                  accepting: q1            edge e2 r p
    p = 0: (@q, @r)          trans q0 a q1
    q = 1: #⊥

Structure values are written shape-first: `@state` (Id), `#elem` (constant),
`(v, v)` (product), `tag: v` (coproduct, by summand index), `{a: v, b: v}`
(exponent), `[m*2, m]` (bag, `*1` implied), `{|m, m|}` / `{||}` (powerset);
under composition the member slots hold nested values.  Comments are
full-line only (`#` opens a constant inside values).  Names are bare unless
they contain one of the reserved characters, in which case they are written
in double quotes; quotes and line breaks cannot occur in names.

A line's tokens (see `functors.Cursor`) are quoted names, bare names and
single reserved characters.  Only spaces and tabs separate tokens in a spec
line; other whitespace characters are part of a name, like letters.  The
functor expression after `functor:` is read by its own parser, which
accepts any whitespace between its tokens.

A document is read by whole-document scans.  The header lines before its
first body line choose the pattern of a body row written with bare names:
built from the functor (`FunctorExpr.reader`: Id, constants, products,
Bag, Pow and their composites, but no listing inside a listing, coproduct
or exponent), or fixed for `trans` and `edge` lines.  One `findall` sorts
every later line into a row, given as columns, or a line for `_sort`; the
values, transitions and edges are built from whole columns.
Only when a line declines the pattern or a check fails are the body lines
walked in line order, each such line read from its tokens, so every error
and the one that wins are the tokens'.

A coalgebra value is checked once, as it is read: its shape comes from the
functor and each member is looked up in the carrier.  A constant outside its
set is only noted on the line (`Cursor.outside`).  Every document is built
by `PointedCoalgebra._trusted` and then given the constructor's carrier
checks (`PointedCoalgebra._check`); only a document with such a constant
has its values checked again there, which reports the first bad value in
carrier order, after every line has parsed.

Emission quotes each name of a document (states, letters, edge ids) once,
into one table in carrier order, and renders every line from it; the
values of all the closed states are written by one column walk
(`FunctorExpr.show`).  The names are quoted one by one only when some
name needs quotes.  The line-break check is one scan of the names and the
header lines (the only lines that write the functor's constants and
letters); only when it fails are the lines scanned, to name the first that
holds a break.
"""

from __future__ import annotations

import re
from itertools import chain, compress, count
from operator import not_

from .automata import PartialDFA
from .base import (CoalgebraError, FiniteSet, ShapeError, SpecFormatError,
                   StateId)
from .coalgebra import Edge, Multigraph, PointedCoalgebra
from .functors import (_NOT_NAMES, BARE, NAME, RESERVED, Cursor, FunctorExpr,
                       FunctorSyntaxError, FValue, _columns, _within,
                       format_functor, parse_functor, quote_name as _quote)

_KEYS = frozenset(("kind", "functor", "states", "point", "open",
                   "alphabet", "initial", "accepting", "vertices", "root"))


# --------------------------------------------------------------------------
# line-level tokenizing


class _Line(Cursor):
    """A spec-file line being read, with the line-level readers."""

    __slots__ = ()

    def expect_end(self) -> None:
        if self.toks[self.i]:
            raise self.error(f"unexpected trailing text {self.rest()!r}")

    def names_rest(self) -> list[StateId]:
        names = self.text.strip(" \t").split(", ")
        if self.i == 0 and _bare(names):
            return names  # bare names only, each after ", "
        out = [self.name()]
        toks = self.toks
        while toks[self.i] == ",":
            self.i += 1
            out.append(self.name())
        self.expect_end()
        return out

    def set_rest(self) -> FiniteSet:
        try:
            return FiniteSet(self.names_rest())
        except ValueError as exc:
            raise self.error(str(exc)) from None


def _bare(names: list[str]) -> bool:
    """Whether every name is written bare (see `quote_name`), from one
    scan of them all."""
    joined = "".join(names)  # no reserved character is a letter or digit
    return all(names) and (joined.isalnum() or not any(
        map(joined.__contains__, RESERVED)))


def _written(names) -> dict[str, str]:
    """Each name as it is written; only when some name needs quotes is
    each one quoted alone."""
    names = list(names)
    return (dict(zip(names, names)) if _bare(names)
            else {x: _quote(x) for x in names})


# --------------------------------------------------------------------------
# shape-directed value syntax


def parse_value(functor: FunctorExpr, text: str, line_no: int = 0) -> FValue:
    cur = _Line(text, line_no)
    v = functor.parse(cur, Cursor.name)
    cur.expect_end()
    return v


def format_value(functor: FunctorExpr, value: FValue) -> str:
    """The spec-file text of one value.  Every walk over the values of a
    document is column-wise (`emit_coalgebra` writes them all with one
    `show`); this one passes a column of one value."""
    return functor.show([value], lambda ms: list(map(_quote, ms)))[0]


# --------------------------------------------------------------------------
# documents


# characters str.splitlines breaks at: `parse_spec` reads a document line by
# line, so no name written into one may hold them, quoted or not
LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def _document(lines: list[str], heads: int, names) -> str:
    """The lines as one document, checked for line breaks in the names and
    the first `heads` lines (see the module docstring)."""
    text = "".join(chain(names, lines[:heads]))
    if any(map(text.__contains__, LINE_BREAKS)):
        line = next(t for t in lines if not LINE_BREAKS.isdisjoint(t))
        raise SpecFormatError(
            f"cannot write {line!r}: a name in it holds a line break")
    return "\n".join(lines) + "\n"


def emit_coalgebra(c: PointedCoalgebra) -> str:
    q = _written(c.carrier)
    name, structure = q.__getitem__, c.structure
    frontier = c.frontier.as_set()
    lines = ["kind: coalgebra", f"functor: {format_functor(c.functor)}",
             "states: " + ", ".join(q.values()), "point: " + q[c.point]]
    if frontier:
        lines.append("open: " + ", ".join(map(name, c.frontier)))
    heads = len(lines)
    closed = [x for x in c.carrier if x not in frontier]
    shown = c.functor.show(list(map(structure.__getitem__, closed)),
                           lambda ms: list(map(name, ms)))
    lines += map(" = ".join, zip(map(name, closed), shown))
    return _document(lines, heads, q)


def emit_dfa(d: PartialDFA) -> str:
    q = _written(chain(d.alphabet, d.states))
    name, delta = q.__getitem__, d.delta
    lines = ["kind: dfa", "alphabet: " + ", ".join(map(name, d.alphabet)),
             "states: " + ", ".join(map(name, d.states)),
             "initial: " + q[d.initial]]
    acc = [q[x] for x in d.states if x in d.accepting]
    if acc:
        lines.append("accepting: " + ", ".join(acc))
    heads = len(lines)
    lines += [f"trans {q[x]} {q[a]} {q[delta[x, a]]}" for x in d.states
              for a in d.alphabet if (x, a) in delta]
    return _document(lines, heads, q)


def emit_multigraph(g: Multigraph) -> str:
    q = _written(chain(g.vertices, (e.id for e in g.edges)))
    lines = ["kind: multigraph",
             "vertices: " + ", ".join(map(q.__getitem__, g.vertices)),
             "root: " + q[g.root]]
    lines += [f"edge {q[e.id]} {q[e.src]} {q[e.tgt]}" for e in g.edges]
    return _document(lines, 3, q)


def emit_spec(obj) -> str:
    if isinstance(obj, PointedCoalgebra):
        return emit_coalgebra(obj)
    if isinstance(obj, PartialDFA):
        return emit_dfa(obj)
    if isinstance(obj, Multigraph):
        return emit_multigraph(obj)
    raise SpecFormatError(f"cannot emit a {type(obj).__name__}")


def parse_spec(text: str) -> PointedCoalgebra | PartialDFA | Multigraph:
    """Parse a spec document into the object its kind tag names."""
    if any(map(text.__contains__, LINE_BREAKS - {"\n"})):
        text = "\n".join(text.splitlines())  # numbered as `splitlines` does
    keys: dict[str, _Line] = {}
    pos, no = 0, 1
    while (end := text.find("\n", pos)) >= 0 and not _sort(
            text[pos:end], no, keys):
        pos, no = end + 1, no + 1
    # the header lines before the first body line choose the row pattern
    kind = keys["kind"].rest() if "kind" in keys else "coalgebra"
    functor, known = None, set()
    if kind == "coalgebra" and "functor" in keys:
        try:
            functor = parse_functor(keys["functor"].rest())
        except CoalgebraError:
            pass  # reported by `_build_coalgebra`, in its turn
    row, build = _row(kind, functor, known) or ("()(?!)", None)
    pattern = re.compile(f"(?m)^(?:{row}$|(.*))")
    *cols, raw = _columns(pattern.findall(text, pos), pattern.groups)
    rows = cols[0]  # a row's first column, a name, is never empty
    body = [n for n, line in compress(zip(count(no), raw), map(not_, rows))
            if _sort(line, n, keys)]
    scan = (list(compress(count(no), rows)),
            [list(compress(col, rows)) for col in cols], body, text)
    # a kind line after the first body line changes no row: a functor line
    # then makes the document fail `_require`, and without one none was read
    kind = keys.pop("kind").rest() if "kind" in keys else "coalgebra"
    if kind == "coalgebra":
        return _build_coalgebra(keys, scan, functor, build, known)
    if kind == "dfa":
        return _build_dfa(keys, scan)
    if kind == "multigraph":
        return _build_multigraph(keys, scan)
    raise SpecFormatError(f"unknown kind {kind!r}")


def _sort(raw: str, no: int, keys: dict[str, _Line]) -> bool:
    """Whether line `no` is a body line.  A header line goes into `keys`; a
    repeated key, or a line that opens with a reserved character, raises."""
    stripped = raw.strip()
    if not stripped or stripped[0] == "#":
        return False
    word, colon, rest = raw.partition(":")
    word = word.strip(" \t")
    if colon and word in _KEYS:
        cur = _Line(rest, no)
        if word in keys:
            raise cur.error(f"duplicate key {word!r}")
        keys[word] = cur
        return False
    if raw.lstrip(" \t")[0] in _NOT_NAMES:
        # raises: no line opens with a reserved character
        _Line(raw, no).name()
    return True


def _row(kind: str, functor: FunctorExpr | None, known: set[StateId]):
    """The pattern of a body line of a document of `kind` written with bare
    names, one group per column, and for a coalgebra the `build` of its
    values from the columns, which looks their states up in `known`; None
    leaves every body line to the `Cursor` path."""
    word = {"dfa": "trans", "multigraph": "edge"}.get(kind)
    if word:
        return f"[ \t]*{word}" + f"[ \t]+({BARE})" * 3 + "[ \t]*", None
    bare = functor and functor.reader((NAME, 1, lambda c: _within(c[0], known)))
    return bare and (f"[ \t]*{NAME}=[ \t]*{bare[0]}", bare[2])


def _lines(scan):
    """Each body line in line order: its number, the columns of its row
    (None for a line the scan declined) and its text."""
    nos, cols, body, text = scan
    rows, lines = dict(zip(nos, zip(*cols))), text.split("\n")
    return ((no, rows.get(no), lines[no - 1]) for no in sorted(nos + body))


def _require(keys: dict[str, _Line], kind: str, needed: tuple[str, ...],
             optional: tuple[str, ...] = ()) -> None:
    for k in needed:
        if k not in keys:
            raise SpecFormatError(f"{kind} document needs a {k!r} line")
    for k in keys:
        if k not in needed and k not in optional:
            raise SpecFormatError(
                f"line {keys[k].no}: key {k!r} does not belong in a "
                f"{kind} document")


def _build_coalgebra(keys, scan, functor, build, known) -> PointedCoalgebra:
    _require(keys, "coalgebra", ("functor", "states", "point"), ("open",))
    try:
        functor = functor or parse_functor(keys["functor"].rest())
    except FunctorSyntaxError as exc:
        raise SpecFormatError(
            f"line {keys['functor'].no}: bad functor: {exc}") from exc
    states = keys["states"].set_rest()
    point = keys["point"].name()
    keys["point"].expect_end()
    frontier = keys["open"].set_rest() if "open" in keys else FiniteSet()
    known.update(states)  # the set `build` looks the states up in
    nos, cols, body, _ = scan

    def member(cur: _Line) -> StateId:
        m = cur.name()
        if m not in known:
            raise cur.error(f"state {m!r} not in the carrier")
        return m

    def made(columns):  # None when a check fails
        try:
            return build(columns)
        except (KeyError, ValueError):
            return None

    values = nos and made(cols[1:])
    structure = dict(zip(cols[0], values or ()))
    outside = False
    if len(structure) < len(nos) + len(body) or not known.issuperset(
            structure):
        # a line the scan declined, a row that failed a check, or a state
        # outside the carrier or given twice: read in line order, each row
        # that fails alone by the `Cursor` path
        values = dict(zip(nos, values or [
            (made([(g,) for g in row]) or [None])[0] for row in zip(*cols[1:])]))
        structure = {}
        for no, row, raw in _lines(scan):
            if row and values[no] is not None and row[0] in known and (
                    row[0] not in structure):
                structure[row[0]] = values[no]
                continue
            cur = _Line(raw, no)
            x = cur.name()
            if x not in known:
                raise cur.error(f"structure for unknown state {x!r}")
            if x in structure:
                raise cur.error(f"duplicate structure for state {x!r}")
            cur.take("=")
            structure[x] = functor.parse(cur, member)
            cur.expect_end()
            outside = outside or cur.outside
    c = PointedCoalgebra._trusted(functor, states, structure, point, frontier)
    try:
        # every value was read against the functor and the carrier; a
        # constant outside its set is reported by `validate_value`, in
        # carrier order
        c._check(values=outside)
    except ShapeError as exc:
        raise SpecFormatError(str(exc)) from exc
    return c


def _triples(scan, word: str, article: str):
    """(line number, names) of each body line `word a b c`, in line order:
    the scan's rows, and the lines it declined read by the `Cursor` path."""
    for no, row, raw in _lines(scan):
        if row:
            yield no, row
            continue
        cur = _Line(raw, no)
        found = cur.name()
        if found != word:
            raise cur.error(f"expected {article} {word!r} line, found {found!r}")
        names = cur.name(), cur.name(), cur.name()
        cur.expect_end()
        yield no, names


def _build_dfa(keys, scan) -> PartialDFA:
    _require(keys, "dfa", ("alphabet", "states", "initial"), ("accepting",))
    alphabet = keys["alphabet"].set_rest()
    states = keys["states"].set_rest()
    initial = keys["initial"].name()
    keys["initial"].expect_end()
    accepting = keys["accepting"].names_rest() if "accepting" in keys else ()
    nos, cols, body, _ = scan
    delta = dict(zip(zip(*cols[:2]), cols[2])) if nos else {}
    if len(delta) < len(nos) + len(body):
        delta = {}
        for no, (q, a, q2) in _triples(scan, "trans", "a"):
            if (q, a) in delta:
                raise SpecFormatError(
                    f"line {no}: duplicate transition {q!r} on {a!r}")
            delta[(q, a)] = q2
    try:
        return PartialDFA(alphabet, states, accepting, delta, initial)
    except ShapeError as exc:
        raise SpecFormatError(str(exc)) from exc


def _build_multigraph(keys, scan) -> Multigraph:
    _require(keys, "multigraph", ("vertices", "root"))
    vertices = keys["vertices"].set_rest()
    root = keys["root"].name()
    keys["root"].expect_end()
    nos, cols, body, _ = scan
    if body or not nos:
        cols = _columns([names for _, names in _triples(scan, "edge", "an")], 3)
    edges = list(map(Edge, *cols))
    try:
        return Multigraph(vertices, tuple(edges), root)
    except ShapeError as exc:
        raise SpecFormatError(str(exc)) from exc
