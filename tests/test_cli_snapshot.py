"""Byte-exact CLI snapshot.

Every command that applies to an input is run through `main`; its exit code,
the sha256 of its stdout and stderr, and the sha256 of each file it writes
are compared with the digests in `cli_snapshot.json`.  The inputs are the
fixtures, a few inline specs for shapes the fixtures lack (compositions,
exponents, constants inside other layers), and seeded random coalgebras.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import re

import pytest

from coalg import emit_spec
from coalg.cli import main

import generators
from conftest import FIXTURE_DIR, FIXTURE_NAMES

SNAPSHOT = pathlib.Path(__file__).resolve().parent / "cli_snapshot.json"

INLINE = {
    "bag_of_pairs": """\
functor: Bag . (Id x 2)
states: r, p, q
point: r
r = [(@p, #0)*2, (@q, #1)]
p = [(@q, #0)]
q = []
""",
    "exponent_of_sets": """\
functor: {stop} + Id^{a,b} . Pow
states: s, t, u
point: s
s = 1: {a: @{|u|}, b: @{||}}
t = 1: {a: @{|s, u|}, b: @{|t|}}
u = 0: #stop
""",
    "labelled_bag": """\
functor: {x,y} x Bag + 1
states: a, b, c
point: a
a = 0: (#x, [b*2, c])
b = 0: (#y, [c])
c = 1: #⊥
""",
    "bag_of_choices": """\
functor: Bag . (Id + Id^{l,r})
states: n0, n1, n2
point: n0
n0 = [0: @n1*2, 1: {l: @n1, r: @n2}]
n1 = [1: {l: @n2, r: @n2}]
n2 = []
""",
}

RANDOM_SEEDS = range(12)

COALGEBRA_COMMANDS = (
    ("check",),
    ("reachable", "--emit", "out.spec"),
    ("is-tree",),
    ("unravel", "--emit", "out.spec", "--dot", "out.dot"),
    ("dot",),
)
EXTRA_COMMANDS = {
    "dfa": (("dfa-inputs", "--emit", "out.spec", "--dot", "out.dot"),),
    "multigraph": (("paths", "--emit", "out.spec", "--dot", "out.dot"),),
}
OUTPUTS = ("out.spec", "out.dot")


def _random_spec(seed: int) -> str:
    rng = random.Random(seed)
    return emit_spec(generators.random_coalgebra(rng, max_states=4,
                                                 open_states=False))


def input_texts() -> dict[str, str]:
    texts = {name: (FIXTURE_DIR / f"{name}.spec").read_text(encoding="utf-8")
             for name in FIXTURE_NAMES}
    texts.update(INLINE)
    for seed in RANDOM_SEEDS:
        texts[f"random_{seed}"] = _random_spec(seed)
    return texts


def commands(text: str, random_input: bool) -> list[tuple[str, ...]]:
    kind = re.search(r"^kind: *(\w+)", text, re.M)
    kind = kind.group(1) if kind else "coalgebra"
    out = list(COALGEBRA_COMMANDS) + list(EXTRA_COMMANDS.get(kind, ()))
    if random_input:
        # random cyclic coalgebras unravel exponentially; cap the depth
        out = [cmd + ("--depth", "3") if cmd[0] == "unravel" else cmd
               for cmd in out]
    return out


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def snapshot(name: str, text: str, workdir: pathlib.Path, capsys) -> dict:
    """Digests of every applicable command on one input, run in workdir."""
    (workdir / "in.spec").write_text(text, encoding="utf-8")
    record = {}
    for cmd in commands(text, name.startswith("random_")):
        for out in OUTPUTS:
            (workdir / out).unlink(missing_ok=True)
        code = main([cmd[0], "in.spec", *cmd[1:]])
        captured = capsys.readouterr()
        files = {out: hashlib.sha256((workdir / out).read_bytes()).hexdigest()
                 for out in OUTPUTS if (workdir / out).exists()}
        record[" ".join(cmd)] = {"code": code, "stdout": _sha(captured.out),
                                 "stderr": _sha(captured.err), "files": files}
    return record


INPUTS = input_texts()


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_cli_bytes_match_the_snapshot(name, tmp_path, monkeypatch, capsys):
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))[name]
    monkeypatch.chdir(tmp_path)
    assert snapshot(name, INPUTS[name], tmp_path, capsys) == expected
