"""Plain `coalg unravel` against the tree it would build.

Without --depth, --emit or --dot, `unravel` prints its report from the
root-path counts of `unravelling.complete_counts` and builds no tree when
the unravelling is complete; otherwise it builds the tree as `--emit` does.
Both must print the same report, with the same exit code and errors, on
every input: the fixtures, the inline specs of the CLI snapshot, and seeded
coalgebras (with powerset values, bag multiplicities and open states),
shared DAGs, multigraphs, and acyclic and cyclic DFAs.
"""

from __future__ import annotations

import random

import pytest

from coalg import SearchSpaceTooLarge, emit_spec, parse_spec, unravelling
from coalg.cli import _as_coalgebra, main

import generators
from conftest import FIXTURE_DIR, FIXTURE_NAMES, fixture_path
from test_cli_snapshot import INLINE

DRAWS = 300  # per generator: 1,500 seeded objects in all


def seeded_texts() -> list[str]:
    rng = random.Random(1717)
    texts = []
    for _ in range(DRAWS):
        texts.append(emit_spec(generators.random_coalgebra(
            rng, max_states=5, open_states=True)))
        texts.append(emit_spec(generators.random_shared_dag(rng)))
        texts.append(emit_spec(generators.random_multigraph(
            rng, max_vertices=4, max_edges=6)))
        texts.append(emit_spec(generators.random_acyclic_dfa(rng)))
        texts.append(emit_spec(generators.random_dfa(rng)))
    return texts


def run(capsys, *argv) -> tuple[int, list[str], str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_plain_unravel_reports_what_the_built_tree_does(tmp_path, monkeypatch,
                                                        capsys):
    # at the default guard some cyclic draws would build millions of tree
    # states before either run could tell
    monkeypatch.setenv("COALG_GUARD", "20000")
    texts = [(FIXTURE_DIR / f"{name}.spec").read_text(encoding="utf-8")
             for name in FIXTURE_NAMES]
    texts += list(INLINE.values()) + seeded_texts()
    spec, tree = tmp_path / "in.spec", tmp_path / "tree.spec"
    complete = 0
    for text in texts:
        spec.write_text(text, encoding="utf-8")
        plain = run(capsys, "unravel", str(spec))
        code, out, err = run(capsys, "unravel", str(spec), "--emit", str(tree))
        if code == 0:
            assert out.pop() == f"wrote {tree}", text
        assert plain == (code, out, err), text
        complete += plain[1][:1] == ["complete: true"]
    # the counts path answers for a good share of the inputs
    assert complete >= 500


def test_plain_unravel_of_a_complete_tree_builds_no_level(monkeypatch,
                                                          capsys, tmp_path):
    calls = []

    def counted(*args, original=unravelling.tree_levels):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(unravelling, "tree_levels", counted)
    assert run(capsys, "unravel", fixture_path("diamond_bag"))[0] == 0
    assert calls == []
    assert run(capsys, "unravel", fixture_path("diamond_bag"),
               "--emit", str(tmp_path / "tree.spec"))[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["two_cycle", "pow_edge"])
def test_plain_unravel_builds_the_tree_where_the_counts_do_not_answer(
        name, monkeypatch, capsys):
    # a reachable cycle truncates; a non-empty powerset value fails at the
    # tree state that carries it
    calls = []

    def counted(*args, original=unravelling.tree_levels):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(unravelling, "tree_levels", counted)
    run(capsys, "unravel", fixture_path(name))
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["two_cycle", "pow_edge"])
def test_plain_unravel_walks_the_root_paths_once(name, monkeypatch, capsys,
                                                 tmp_path):
    # the counts do not answer (a cycle, a non-empty powerset value), so the
    # tree is built to the depth `tree_unravelling` would choose, 3 * |C|
    # for both inputs, without a second walk, also when it is written
    calls = []

    def counted(*args, original=unravelling._root_paths):
        calls.append(args)
        return original(*args)

    written = ["--emit", str(tmp_path / "t.spec"),
               "--dot", str(tmp_path / "t.dot")]
    for flags in ([], written):
        depth = run(capsys, "unravel", fixture_path(name), "--depth", "6",
                    *flags)
        files = [p.read_bytes() for p in sorted(tmp_path.iterdir())]
        monkeypatch.setattr(unravelling, "_root_paths", counted)
        assert run(capsys, "unravel", fixture_path(name), *flags) == depth
        assert [p.read_bytes() for p in sorted(tmp_path.iterdir())] == files
        monkeypatch.undo()
        assert len(calls) == 1
        calls.clear()


def test_complete_counts_are_the_copies_of_the_built_tree(monkeypatch):
    # `unravel` prints its copies from the counts whenever they answer, also
    # with --emit or --dot; here they meet the tree those would write
    monkeypatch.setenv("COALG_GUARD", "20000")
    answered = 0
    for text in seeded_texts():
        c = _as_coalgebra(parse_spec(text))
        if not c.is_total():
            continue
        try:
            counts = unravelling.complete_counts(c)
        except SearchSpaceTooLarge:
            continue
        if counts is not None:
            tree = unravelling.unravel(c, len(c.carrier))
            assert tree.complete
            assert unravelling.copy_counts(tree.projection) == {
                y: counts.get(y, 0) for y in c.carrier}, text
            answered += 1
    assert answered >= 500
