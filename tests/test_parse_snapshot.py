"""Parser parity snapshot.

About 2,000 seeded documents are parsed: the fixtures, emitted random
coalgebras, DFAs and multigraphs, and the same documents with one small
edit next to a token (a reserved character inserted or deleted, a quote,
a non-ASCII digit, `*12abc`, a header line with or without `@`).  Each
outcome is compared with `parse_snapshot.json`: the sha256 of `emit_spec`
of the parsed object, or the exception's type and exact message.  So the
snapshot pins every parse result, every error message, and which error wins
when a document has several.

To write the snapshot again after an intended change of outcome:

    PYTHONPATH=src python tests/test_parse_snapshot.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from coalg import FiniteSet, PointedCoalgebra, emit_spec, fmap, parse_spec

import generators
from conftest import FIXTURE_DIR, FIXTURE_NAMES

SNAPSHOT = pathlib.Path(__file__).resolve().parent / "parse_snapshot.json"

# names holding the delimiters of spec values and functor set literals
ODD_NAMES = ("a b", "c,d", "{e}", "f:g", "h#i", "p|q", "r*s", "t=u", "(v)",
             "[w]", "@y", ";z", "x", "0", "1", "^", ".", "+")
KEYS = ("kind", "functor", "states", "point", "open", "alphabet", "initial",
        "accepting", "vertices", "root")
RESERVED = ' \t"#@(){}[]|*:,='
INSERTS = tuple(RESERVED) + ('"', '""', "²", "٣", "1٣", "*12abc", "12abc",
                             "\xa0", "　", "\x0c", "*", "*0", "x")
BASES_PER_KIND = (("coalgebra", 260), ("dfa", 80), ("multigraph", 60))
MUTANTS_PER_BASE = 4


def _coalgebra(rng: random.Random) -> PointedCoalgebra:
    letters = tuple(rng.sample(ODD_NAMES, 3)) if rng.random() < 0.3 \
        else generators.LETTERS
    c = generators.random_coalgebra(rng, max_states=5, open_states=True,
                                    letters=letters)
    if rng.random() < 0.3:
        tag = rng.choice(ODD_NAMES)
        ren = {x: f"{x}{tag}" for x in c.carrier}
        c = PointedCoalgebra(
            c.functor, FiniteSet(ren[x] for x in c.carrier),
            {ren[x]: fmap(c.functor, ren, v) for x, v in c.structure.items()},
            ren[c.point], FiniteSet(ren[x] for x in c.frontier))
    return c


def base_documents(rng: random.Random) -> list[str]:
    docs = [(FIXTURE_DIR / f"{name}.spec").read_text(encoding="utf-8")
            for name in FIXTURE_NAMES]
    for kind, count in BASES_PER_KIND:
        for _ in range(count):
            if kind == "coalgebra":
                obj = _coalgebra(rng)
            elif kind == "dfa":
                obj = (generators.random_dfa(rng) if rng.random() < 0.5
                       else generators.random_acyclic_dfa(rng))
            else:
                obj = generators.random_multigraph(rng, 5, 6)
            docs.append(emit_spec(obj))
    # layouts the writer never produces: tabs, CRLF, comments, late headers
    docs.append("\tfunctor:\tId\r\nstates: p\r\n# note\r\np\t=\t@p\r\n"
                "point : p\r\n")
    docs.append("p = [p * 2 , q]\nq = []\nfunctor: Bag\nstates: p, q\n"
                "point: p\n")
    return docs


def _boundaries(line: str) -> list[int]:
    """Offsets at the edges of the line's tokens, and after its digits."""
    return [i for i in range(len(line) + 1)
            if i in (0, len(line)) or line[i] in RESERVED
            or line[i - 1] in RESERVED or line[i - 1].isdecimal()]


def mutate(rng: random.Random, doc: str) -> str:
    """`doc` with one edit next to a token of one of its lines."""
    lines = doc.splitlines()
    k = rng.randrange(len(lines))
    line = lines[k]
    edit = rng.randrange(6)
    if edit == 0:
        # a header line, maybe behind `@` or quotes, inserted anywhere
        key = rng.choice(KEYS)
        head = rng.choice((f"{key}:", f"@{key}:", f'"{key}":', f"{key} :",
                           f"{key}", f"{key}@:"))
        value = rng.choice((" x", " p, q", "", " dfa", " Id", " s0"))
        lines.insert(k, head + value)
    elif edit == 1:
        lines.insert(k, line)
    else:
        at = rng.choice(_boundaries(line))
        if edit == 2 and at < len(line):
            lines[k] = line[:at] + line[at + 1:]
        else:
            lines[k] = line[:at] + rng.choice(INSERTS) + line[at:]
    return "\n".join(lines) + "\n"


def documents() -> list[str]:
    rng = random.Random(2025)
    bases = base_documents(rng)
    return bases + [mutate(rng, doc) for doc in bases
                    for _ in range(MUTANTS_PER_BASE)]


def outcome(text: str) -> str:
    # every failure is pinned by type and message, a library error or not
    try:
        obj = parse_spec(text)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    try:
        out = emit_spec(obj)
    except Exception as exc:
        return f"emit {type(exc).__name__}: {exc}"
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def record() -> list[list[str]]:
    return [[_sha(doc), outcome(doc)] for doc in documents()]


def test_documents_cover_both_outcomes():
    outcomes = [o for _, o in json.loads(SNAPSHOT.read_text(encoding="utf-8"))]
    errors = [o for o in outcomes if ":" in o]
    assert len(outcomes) >= 2000
    assert 300 <= len(errors) <= len(outcomes) - 300


def test_parse_outcomes_match_the_snapshot():
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    got = record()
    assert [doc for doc, _ in got] == [doc for doc, _ in expected], \
        "the generated documents changed; the snapshot no longer applies"
    diffs = [(i, want, have) for i, ((_, want), (_, have))
             in enumerate(zip(expected, got)) if want != have]
    assert not diffs, diffs[:5]


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(record(), ensure_ascii=False, indent=0)
                        + "\n", encoding="utf-8")
