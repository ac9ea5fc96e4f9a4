"""Functor expression parity snapshot.

About 2,000 seeded functor expressions are read by `parse_functor`: random
expressions as `format_functor` writes them (set-literal names among them
that need double quotes), the same expressions with one character or
numeral inserted or deleted at a token edge, and nestings of 64 and 65
levels.  Each outcome is compared with `functor_snapshot.json`: the sha256
of `format_functor` of the parsed expression, or the exception's type and
exact message, offset included.  So the snapshot pins every accepted
expression, every error message and the offset each error names.

To write the snapshot again after an intended change of outcome:

    PYTHONPATH=src python tests/test_functor_snapshot.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random

from coalg import format_functor, parse_functor

import generators

SNAPSHOT = pathlib.Path(__file__).resolve().parent / "functor_snapshot.json"

# set-literal names, some holding a delimiter of the expression syntax
ODD_LETTERS = ("a b", "c,d", "{e}", "x", "0", "1", "^", ".", "+", "Id", "é",
               "f(g)", "h;i")
# characters at which a token ends
EDGES = set(' (){},^.+"')
INSERTS = tuple('(){},^.+x"') + ("\xa0", "　", "²", "٣", "0",
                                 "123456789012345678901234567890")
BASES = 400
MUTANTS_PER_BASE = 4


def base_expressions(rng: random.Random) -> list[str]:
    out: dict[str, None] = {}
    while len(out) < BASES:
        letters = tuple(rng.sample(ODD_LETTERS, 3)) if rng.random() < 0.3 \
            else generators.LETTERS
        out[format_functor(
            generators.random_functor(rng, depth=3, letters=letters))] = None
    return list(out)


def _boundaries(text: str) -> list[int]:
    """Offsets at the edges of the expression's tokens, and after digits."""
    return [i for i in range(len(text) + 1)
            if i in (0, len(text)) or text[i] in EDGES
            or text[i - 1] in EDGES or text[i - 1].isdecimal()]


def mutate(rng: random.Random, text: str) -> str:
    """`text` with one character deleted, or one insert, at a token edge."""
    at = rng.choice(_boundaries(text))
    if rng.random() < 0.3 and at < len(text):
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice(INSERTS) + text[at:]


def nestings() -> list[str]:
    """Parentheses, compositions, exponents and products 64 and 65 deep
    (the limit is MAX_FUNCTOR_DEPTH), and numerals too long to read."""
    out = []
    for n in (63, 64, 65):
        out += ["(" * n + "Id" + ")" * n,
                " . ".join(["Bag"] * (n - 1) + ["Id"]),
                "Id" + "^{a}" * (n - 1),
                "Id x (" * (n - 1) + "Id" + ")" * (n - 1),
                "(Id + " * (n - 1) + "2" + ")" * (n - 1)]
    out += ["9" * 5000, "Id x " + "7" * 4301, "{a}^{" + "1" * 4301 + "}"]
    return out


def expressions() -> list[str]:
    """The bases, then distinct mutants of each, then the nestings."""
    rng = random.Random(2028)
    out = dict.fromkeys(base_expressions(rng))
    for text in list(out):
        made = 0
        while made < MUTANTS_PER_BASE:
            mutant = mutate(rng, text)
            made += mutant not in out
            out[mutant] = None
    return list(out) + nestings()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(text: str) -> str:
    # every failure is pinned by type and message, a library error or not
    try:
        f = parse_functor(text)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return _sha(format_functor(f))


def record() -> list[list[str]]:
    return [[_sha(text)[:16], outcome(text)] for text in expressions()]


def test_expressions_cover_both_outcomes():
    outcomes = [o for _, o in json.loads(SNAPSHOT.read_text(encoding="utf-8"))]
    errors = [o for o in outcomes if ":" in o]
    assert len(outcomes) >= 2000
    assert 300 <= len(errors) <= len(outcomes) - 300


def test_functor_outcomes_match_the_snapshot(monkeypatch):
    monkeypatch.delenv("COALG_GUARD", raising=False)  # numerals meet the default
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    got = record()
    assert [text for text, _ in got] == [text for text, _ in expected], \
        "the generated expressions changed; the snapshot no longer applies"
    diffs = [(i, want, have) for i, ((_, want), (_, have))
             in enumerate(zip(expected, got)) if want != have]
    assert not diffs, diffs[:5]


if __name__ == "__main__":
    os.environ.pop("COALG_GUARD", None)
    SNAPSHOT.write_text(json.dumps(record(), ensure_ascii=False, indent=0)
                        + "\n", encoding="utf-8")
