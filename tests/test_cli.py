from __future__ import annotations

import pytest

from coalg import FiniteSet, parse_spec, to_dot
from coalg.functors import MAX_FUNCTOR_DEPTH
from coalg.specfile import LINE_BREAKS
from coalg.cli import main

from conftest import fixture_path, load_fixture


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_check_reports_sizes(capsys):
    code, out = run(capsys, "check", fixture_path("diamond_bag"))
    assert code == 0
    assert out.splitlines()[0] == "valid coalgebra: 4 states"
    code, out = run(capsys, "check", fixture_path("chain_dfa"))
    assert code == 0
    assert "valid dfa: 2 states, 1 letters, 1 transitions" in out
    code, out = run(capsys, "check", fixture_path("diamond"))
    assert code == 0
    assert "valid multigraph: 4 vertices, 6 edges" in out


def test_check_rejects_broken_files(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("functor: Id\nstates: p\npoint: q\np = @p\n",
                   encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.spec")]) == 2


@pytest.mark.parametrize("brk", sorted(LINE_BREAKS))
def test_names_holding_line_breaks_are_input_errors(tmp_path, capsys, brk):
    spec = tmp_path / "brk.spec"
    name = f'"a{brk}b"'
    spec.write_text(f"functor: Id\nstates: {name}\npoint: {name}\n"
                    f"{name} = @{name}\n", encoding="utf-8", newline="")
    for command in ("check", "reachable", "unravel"):
        assert main([command, str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and "Traceback" not in err


@pytest.mark.parametrize("functor, value", [
    ("(" * 400 + "Id" + ")" * 400, "@p"),
    (" . ".join(["Bag"] * 1200 + ["Id"]), "[" * 1200 + "@p" + "]" * 1200),
])
def test_deeply_nested_functors_are_input_errors(tmp_path, capsys, functor,
                                                 value):
    spec = tmp_path / "deep.spec"
    spec.write_text(f"functor: {functor}\nstates: p\npoint: p\np = {value}\n",
                    encoding="utf-8")
    for command in ("check", "reachable", "unravel"):
        assert main([command, str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: line 1: bad functor: ")


def test_the_deepest_functor_runs_every_command(tmp_path, capsys):
    k = MAX_FUNCTOR_DEPTH - 1
    functor = " . ".join(["Bag"] * k + ["Id"])
    spec = tmp_path / "deepest.spec"
    spec.write_text(f"functor: {functor}\nstates: p, q\npoint: p\n"
                    f"p = {'[' * k}@q{']' * k}\nq = []\n", encoding="utf-8")
    out = str(tmp_path / "out")
    for argv in (["check"], ["reachable", "--emit", out + ".reach"],
                 ["is-tree"], ["unravel", "--emit", out, "--dot", out + ".dot"],
                 ["dot"]):
        assert main([argv[0], str(spec), *argv[1:]]) == 0
    assert parse_spec((tmp_path / "out").read_text(encoding="utf-8")) \
        .carrier == FiniteSet(("0:p", "1:q"))
    assert capsys.readouterr().err == ""


def test_empty_edge_ids_are_input_errors(tmp_path, capsys):
    spec = tmp_path / "g.spec"
    spec.write_text('kind: multigraph\nvertices: r, p\nroot: r\n'
                    'edge "" r p\n', encoding="utf-8")
    assert main(["paths", str(spec)]) == 2
    assert capsys.readouterr().err == \
        "error: edge ids must be non-empty strings\n"


@pytest.mark.parametrize("text", [
    "functor: Bag\nstates: a, a\npoint: a\na = []\n",
    'functor: Bag\nstates: a, ""\npoint: a\na = []\n',
    "kind: dfa\nalphabet: x, x\nstates: q\ninitial: q\n",
    "kind: multigraph\nvertices: r, r\nroot: r\n",
])
def test_malformed_name_lists_are_input_errors(tmp_path, capsys, text):
    spec = tmp_path / "names.spec"
    spec.write_text(text, encoding="utf-8")
    assert main(["check", str(spec)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: line ")


@pytest.mark.parametrize("text, line", [
    ("functor: Bag\nstates: p\npoint: p\np = [p*\u00b2]\n", 4),
    ("functor: Id + 1\nstates: p\npoint: p\np = \u00b2: @p\n", 4),
    ("functor: \u00b2\nstates: p\npoint: p\np = #0\n", 1),
], ids=["bag-multiplicity", "coproduct-tag", "functor-numeral"])
def test_digits_int_cannot_read_are_input_errors(tmp_path, capsys, text,
                                                 line):
    """`²` is a digit to str.isdigit but not a decimal int() reads: a bag
    multiplicity, a coproduct tag and a functor numeral reject it."""
    spec = tmp_path / "digit.spec"
    spec.write_text(text, encoding="utf-8")
    assert main(["check", str(spec)]) == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: line {line}: ")


def test_decimal_digits_of_any_script_are_numbers(tmp_path, capsys):
    spec = tmp_path / "digit.spec"
    spec.write_text("functor: Bag + \u0663\nstates: p\npoint: p\n"
                    "p = \u0660: [p*\u0662]\n", encoding="utf-8")
    assert main(["check", str(spec)]) == 0
    c = parse_spec(spec.read_text(encoding="utf-8"))
    assert c.functor.summands[1].values == FiniteSet(("0", "1", "2"))
    assert c.structure["p"].value.multiplicity("p") == 2


def test_reachable_on_the_diamond(capsys):
    code, out = run(capsys, "reachable", fixture_path("diamond_bag"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "reachable"
    assert lines[1] == "levels: {r}, {p,q}, {q,v}, {v}"
    assert lines[2] == "reachable part = {r, p, q, v}"


def test_reachable_verdict_failure_exit_code(capsys):
    code, out = run(capsys, "reachable", fixture_path("two_tree_copies"))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "not reachable"
    assert lines[-1] == "reachable part = {left.p, left.q, left.r}"


def test_reachable_emit_round_trips(tmp_path, capsys):
    out_file = tmp_path / "part.spec"
    code, _ = run(capsys, "reachable", fixture_path("two_tree_copies"),
                  "--emit", str(out_file))
    assert code == 1
    emitted = parse_spec(out_file.read_text(encoding="utf-8"))
    assert list(emitted.carrier) == ["left.p", "left.q", "left.r"]
    assert main(["check", str(out_file)]) == 0
    assert main(["reachable", str(out_file)]) == 0


def test_reachable_oracle_agrees(capsys):
    code, out = run(capsys, "reachable", fixture_path("diamond_bag"),
                    "--oracle")
    assert code == 0
    assert "oracle: agree" in out


def test_reachable_oracle_respects_the_guard(capsys):
    # 6 states is past the brute-force bound
    code, out = run(capsys, "reachable", fixture_path("two_tree_copies"),
                    "--oracle")
    assert code == 3


def test_is_tree_verdicts(capsys):
    code, out = run(capsys, "is-tree", fixture_path("two_leaf_tree"))
    assert (code, out.splitlines()[0]) == (0, "true")
    code, out = run(capsys, "is-tree", fixture_path("shared_leaf"))
    assert code == 1
    assert out.splitlines()[0] == \
        "false: sharing (coproduct of levels has 3 states, carrier has 2)"
    code, out = run(capsys, "is-tree", fixture_path("signature_cycle"))
    assert code == 1
    assert out.splitlines()[0] == \
        "false: cycle (levels non-empty past bound)"


def test_is_tree_finds_a_cycle_through_a_large_multiplicity(tmp_path, capsys):
    spec = tmp_path / "loop.spec"
    spec.write_text("functor: Bag\nstates: r\npoint: r\nr = [r*1000000000]\n",
                    encoding="utf-8")
    code, out = run(capsys, "is-tree", str(spec))
    assert (code, out.splitlines()[0]) == \
        (1, "false: cycle (levels non-empty past bound)")


def test_is_tree_oracle_reports_refuters(capsys):
    code, out = run(capsys, "is-tree", fixture_path("shared_leaf"),
                    "--oracle")
    assert code == 1
    assert "oracle: refuted by a 3-state coalgebra" in out
    code, out = run(capsys, "is-tree", fixture_path("two_leaf_tree"),
                    "--oracle")
    assert code == 0
    assert "oracle: no refuter found (not a proof)" in out


def test_unravel_reports_copies(tmp_path, capsys):
    out_file = tmp_path / "tree.spec"
    code, out = run(capsys, "unravel", fixture_path("diamond_bag"),
                    "--emit", str(out_file))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "complete: true"
    assert lines[1] == "tree states: 9"
    assert lines[2] == "copies: r=1, p=1, q=3, v=4"
    assert main(["is-tree", str(out_file)]) == 0


def test_unravel_truncates_cycles(capsys):
    code, out = run(capsys, "unravel", fixture_path("two_cycle"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "complete: false"
    assert "frontier: {6:p0}" in lines
    code, out = run(capsys, "unravel", fixture_path("two_cycle"),
                    "--depth", "2")
    assert "frontier: {2:p0}" in out.splitlines()


def test_unravel_notes_existing_trees(capsys):
    code, out = run(capsys, "unravel", fixture_path("two_leaf_tree"))
    assert code == 0
    assert "note: input is already a tree" in out


def test_unravel_rejects_nonpositive_depth(capsys):
    assert main(["unravel", fixture_path("diamond_bag"),
                 "--depth", "0"]) == 2


def test_dfa_inputs_report(capsys):
    code, out = run(capsys, "dfa-inputs", fixture_path("chain_dfa"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "complete: true"
    assert lines[1] == "P = {ε, a}"
    assert "  ε -> q0" in lines
    assert "  a -> q1" in lines


def test_dfa_inputs_flags_truncation(capsys):
    code, out = run(capsys, "dfa-inputs", fixture_path("loop_dfa"),
                    "--maxlen", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "complete: false (maxlen 3)"
    assert lines[1] == "P = {ε, a, aa, aaa}"


@pytest.mark.parametrize("command, fixture", [
    ("dfa-inputs", "loop_dfa"), ("paths", "diamond")])
def test_negative_maxlen_is_an_input_error(capsys, command, fixture):
    assert main([command, fixture_path(fixture), "--maxlen", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --maxlen must be non-negative\n"


def test_state_names_holding_arrows_are_not_edge_ids(tmp_path, capsys):
    # the edges a -> b->c and a->b -> c of the graph views once shared the
    # id "a->b->c"
    spec = tmp_path / "arrows.spec"
    spec.write_text('functor: Bag\nstates: a, "a->b", c, "b->c"\n'
                    'point: a\na = ["b->c", "a->b"]\n"a->b" = [c]\n'
                    'c = []\n"b->c" = []\n', encoding="utf-8")
    code, out = run(capsys, "is-tree", str(spec))
    assert (code, out) == (0, "true\n")
    code, out = run(capsys, "unravel", str(spec))
    assert code == 0
    assert out.splitlines()[:2] == ["complete: true", "tree states: 4"]
    code, out = run(capsys, "reachable", "--oracle", str(spec))
    assert code == 0
    assert out.splitlines()[-1] == "oracle: agree"
    assert capsys.readouterr().err == ""


def test_dfa_names_holding_slashes_are_not_edge_ids(tmp_path, capsys):
    # the transitions x on y/z and x/y on z once shared the edge id "x/y/z"
    spec = tmp_path / "slashes.spec"
    spec.write_text('kind: dfa\nalphabet: z, "y/z"\nstates: x, "x/y", w\n'
                    'initial: x\ntrans x "y/z" w\ntrans "x/y" z w\n',
                    encoding="utf-8")
    code, out = run(capsys, "dfa-inputs", str(spec))
    assert code == 0
    assert out.splitlines()[:2] == ["complete: true", "P = {ε, y/z}"]
    assert capsys.readouterr().err == ""


def test_dfa_inputs_rejects_other_kinds(capsys):
    assert main(["dfa-inputs", fixture_path("diamond_bag")]) == 2


def test_paths_report(capsys):
    code, out = run(capsys, "paths", fixture_path("diamond"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "complete: true"
    assert lines[1] == "9 rooted paths"
    assert lines[2] == "targets: r=1, p=1, q=3, v=4"
    assert "  e_rp·e_pq1·e_qv -> v" in lines


def test_paths_rejects_other_kinds(capsys):
    assert main(["paths", fixture_path("chain_dfa")]) == 2


def test_dot_renders_multigraph_edges_separately(capsys):
    code, out = run(capsys, "dot", fixture_path("double_edge_graph"))
    assert code == 0
    assert out.count('"p" -> "q"') == 2
    assert out.startswith("digraph")


def test_dot_labels_bag_multiplicities():
    text = to_dot(load_fixture("double_edge"))
    assert text.count('"p" -> "q"') == 1
    assert "×2" in text


def test_dot_renders_dfa_letters():
    text = to_dot(load_fixture("chain_dfa"))
    assert 'label="a"' in text
    assert "doublecircle" in text  # accepting state marker


def test_dot_marks_the_point(capsys):
    code, out = run(capsys, "dot", fixture_path("singleton_bottom"))
    assert code == 0
    assert "__start" in out
    assert '-> "s"' in out


def test_dot_writes_files(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, out = run(capsys, "dot", fixture_path("diamond"), "--out",
                    str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8").startswith("digraph")


def test_missing_file_is_an_input_error(capsys):
    assert main(["reachable", "/no/such/file.spec"]) == 2
