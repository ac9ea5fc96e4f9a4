from __future__ import annotations

import contextlib
import io
import itertools
import os
import pathlib
import subprocess
import sys
import time

import pytest

from coalg import FiniteSet, parse_spec, to_dot
from coalg.functors import MAX_FUNCTOR_DEPTH
from coalg.specfile import LINE_BREAKS
from coalg.cli import _build_parser, main

from conftest import fixture_path, load_fixture

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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


@pytest.mark.parametrize("text, line", [
    ("functor: Bag\nstates: r\npoint: r\nr = [r*" + "1" * 5000 + "]\n", 4),
    ("functor: Id + 1\nstates: r\npoint: r\nr = " + "1" * 5000 + ": #⊥\n",
     4),
    ("functor: " + "1" * 5000 + "\nstates: r\npoint: r\nr = #0\n", 1),
], ids=["bag-multiplicity", "coproduct-tag", "functor-numeral"])
def test_numbers_too_long_for_int_are_input_errors(tmp_path, capsys, text,
                                                   line):
    """int() refuses more than 4,300 digits by default: a bag multiplicity,
    a coproduct tag and a functor numeral that long are input errors."""
    spec = tmp_path / "long.spec"
    spec.write_text(text, encoding="utf-8")
    assert main(["check", str(spec)]) == 2
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: line {line}: ")
    assert "5000 digits" in err


def test_dfa_errors_name_the_first_bad_accepting_state(tmp_path):
    """Accepting states are checked in written order, not in the hash order
    of a set, so every run names the same one."""
    spec = tmp_path / "bad.spec"
    spec.write_text("kind: dfa\nalphabet: a\nstates: q0\ninitial: q0\n"
                    "accepting: x1, y2\n", encoding="utf-8")
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    for seed in "1234":
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-m", "coalg.cli", "check",
                               str(spec)], env=env, capture_output=True,
                              text=True)
        assert (done.returncode, done.stderr) == \
            (2, "error: accepting state 'x1' not a state\n"), seed


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


def test_is_tree_oracle_refuses_a_huge_multiplicity(tmp_path, capsys):
    spec = tmp_path / "loop.spec"
    spec.write_text("functor: Bag\nstates: r\npoint: r\nr = [r*1000000000]\n",
                    encoding="utf-8")
    start = time.perf_counter()
    code = main(["is-tree", str(spec), "--oracle"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ")
    assert elapsed < 1.0


def write_doubling_chain(path, n=41) -> str:
    """v0 -> v1 -> ... -> v(n-1), each slot of multiplicity 2: 2^n - 1 tree
    states from n."""
    lines = ["functor: Bag", "states: " + ", ".join(f"v{i}" for i in range(n)),
             "point: v0"]
    lines += [f"v{i} = [v{i + 1}*2]" for i in range(n - 1)]
    lines.append(f"v{n - 1} = []")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_is_tree_counts_an_exponential_unravelling(tmp_path, capsys):
    spec = write_doubling_chain(tmp_path / "chain.spec")
    start = time.perf_counter()
    code, out = run(capsys, "is-tree", spec)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "false: sharing (coproduct of levels has "
                              "2199023255551 states, carrier has 41)\n")


def test_unravel_refuses_a_complete_tree_past_the_guard(tmp_path, capsys):
    spec = write_doubling_chain(tmp_path / "chain.spec")
    start = time.perf_counter()
    code = main(["unravel", spec])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    [err] = captured.err.splitlines()
    assert err.startswith("error: ") and "2199023255551 tree states" in err


def test_a_depth_past_the_carrier_reads_the_counts(tmp_path, capsys):
    # no root path of an acyclic coalgebra has as many edges as it has
    # states, so a depth of at least |C| cuts nothing: the copies of the
    # 20-state doubling chain's 1,048,575 tree states are counted, not built
    spec = write_doubling_chain(tmp_path / "chain.spec", 20)
    copies = ", ".join(f"v{i}={2 ** i}" for i in range(20))
    for depth in ("20", "30"):
        assert run(capsys, "unravel", spec, "--depth", depth) == (
            0, f"complete: true\ntree states: 1048575\ncopies: {copies}\n")


def test_a_depth_past_the_carrier_ends_without_a_traceback(tmp_path):
    # the 22-state chain's 4,194,303 tree states would not fit under the cap
    spec = write_doubling_chain(tmp_path / "chain.spec", 22)
    code, out, err, seconds = run_capped("unravel", spec, "--depth", "30")
    assert code == 0 and err == "" and seconds < 5.0
    assert out[:2] == ["complete: true", "tree states: 4194303"]


def test_a_depth_past_the_carrier_is_guarded_as_the_complete_unfolding(
        tmp_path, monkeypatch, capsys):
    # a depth that cuts nothing is refused as plain `unravel` refuses the
    # complete unfolding; a shallower one by the prediction to that depth
    monkeypatch.setenv("COALG_GUARD", "10")
    spec = write_doubling_chain(tmp_path / "chain.spec", 5)
    for depth in ([], ["--depth", "5"], ["--depth", "10"]):
        assert main(["unravel", spec, *depth]) == 3
        assert capsys.readouterr() == (
            "", "error: the complete unfolding would have 31 tree states, "
                "more than COALG_GUARD=10\n")
    assert main(["unravel", spec, "--depth", "4"]) == 3
    assert capsys.readouterr() == (
        "", "error: the unravelling to depth 4 would have more than "
            "COALG_GUARD=10 tree states\n")


PARSER_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["bogus", "x"], ["-x", "check", "x"],
    ["check", "x"], ["check"], ["check", "x", "y"], ["check", "-h"],
    ["reachable", "x", "--emit", "o.spec", "--oracle"], ["reachable", "-h"],
    ["is-tree", "--oracle", "missing.spec"], ["is-tree", "x", "--emit", "o"],
    ["is-tree", "-h"], ["unravel", "x", "--depth", "3", "--dot", "t.dot"],
    ["unravel", "x", "--depth", "three"], ["unravel", "x", "--depth"],
    ["unravel", "-h"], ["dfa-inputs", "x", "--maxlen", "4"],
    ["dfa-inputs", "x", "--maxlen", "-1", "--emit", "o"],
    ["dfa-inputs", "x", "--maxlen", "4.5"], ["dfa-inputs", "-h"],
    ["paths", "x", "--maxlen=2", "--dot", "p.dot"], ["paths", "--bogus", "x"],
    ["paths", "-h"], ["dot", "x", "--out", "g.dot"], ["dot", "x", "--bogus"],
    ["dot", "x", "--help"], ["dot", "-h", "x"], ["dot", "--", "x"],
]


def parsed(parser, argv):
    """The Namespace, or the SystemExit code with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_the_chosen_command_parses_as_with_every_command(argv):
    lean = _build_parser(argv[0] if argv else None)
    assert parsed(lean, argv) == parsed(_build_parser(), argv)


def test_a_command_registers_its_subparser_alone():
    [sub] = [a for a in _build_parser("dot")._actions
             if isinstance(a.choices, dict)]
    assert list(sub.choices) == ["dot"]
    [sub] = [a for a in _build_parser()._actions
             if isinstance(a.choices, dict)]
    assert len(sub.choices) == 7


def run_capped(*argv, discard_stdout=False):
    """main(argv) in a child process whose address space is capped at 1 GB,
    so that a construction which runs away fails there instead of taking
    the machine's memory: (exit code, stdout lines, stderr, seconds spent
    in main).  With discard_stdout, the command's stdout goes to the null
    device, so a large listing is not held here."""
    probe = ("import os, resource, sys, time\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
             "from coalg.cli import main\n"
             "timing = sys.stdout\n"
             "if sys.argv[1] == 'discard':\n"
             "    sys.stdout = open(os.devnull, 'w', encoding='utf-8')\n"
             "start = time.perf_counter()\n"
             "code = main(sys.argv[2:])\n"
             "print(time.perf_counter() - start, file=timing)\n"
             "sys.exit(code)\n")
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe,
                           "discard" if discard_stdout else "keep", *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    # the time is the last line: a verdict may be printed before a refusal
    out = done.stdout.splitlines()
    seconds = float(out.pop()) if done.returncode in (0, 3) else None
    return done.returncode, out, done.stderr, seconds


def test_unravel_refuses_a_depth_cap_past_the_guard(tmp_path):
    spec = tmp_path / "loop.spec"
    spec.write_text("functor: Bag\nstates: r\npoint: r\nr = [r*1000000000]\n",
                    encoding="utf-8")
    code, _, err, seconds = run_capped("unravel", str(spec), "--depth", "2")
    assert code == 3 and seconds < 1.0
    [line] = err.splitlines()
    assert line.startswith("error: ") and "depth 2" in line


TRUNCATED_RUNAWAYS = {
    "paths": "kind: multigraph\nvertices: p\nroot: p\n"
             "edge e1 p p\nedge e2 p p\n",
    "dfa-inputs": "kind: dfa\nalphabet: a, b\nstates: q\ninitial: q\n"
                  "trans q a q\ntrans q b q\n",
}


@pytest.mark.parametrize("command", sorted(TRUNCATED_RUNAWAYS))
def test_truncated_unfoldings_are_refused_at_once(tmp_path, command):
    # 2^41 - 1 words or paths up to length 40
    spec = tmp_path / "loop.spec"
    spec.write_text(TRUNCATED_RUNAWAYS[command], encoding="utf-8")
    code, _, err, seconds = run_capped(command, str(spec), "--maxlen", "40")
    assert code == 3 and seconds < 1.0
    [line] = err.splitlines()
    assert line.startswith("error: ") and "depth 40" in line


@pytest.mark.parametrize("numeral, code", [(100, 0), (101, 3)])
def test_functor_numerals_are_bounded_by_the_guard(tmp_path, capsys,
                                                   monkeypatch, numeral, code):
    monkeypatch.setenv("COALG_GUARD", "100")
    spec = tmp_path / "const.spec"
    spec.write_text(f"functor: {numeral}\nstates: r\npoint: r\nr = #7\n",
                    encoding="utf-8")
    assert main(["check", str(spec)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") if code else err == ""


@pytest.mark.parametrize("guard", ["abc", "1e3", ""])
def test_a_malformed_guard_is_an_input_error(guard):
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, COALG_GUARD=guard)
    done = subprocess.run([sys.executable, "-m", "coalg.cli", "unravel",
                           fixture_path("diamond")], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert done.stderr.splitlines() == [
        f"error: COALG_GUARD={guard!r} is not an integer"]


@pytest.mark.parametrize("guard, code", [("-1", 3), ("8", 3), ("9", 0)])
def test_an_integer_guard_bounds_the_unfolding(monkeypatch, guard, code):
    monkeypatch.setenv("COALG_GUARD", guard)
    assert main(["unravel", fixture_path("diamond")]) == code


def test_a_huge_functor_numeral_is_refused_at_once(tmp_path):
    spec = tmp_path / "const.spec"
    spec.write_text("functor: 100000000000\nstates: r\npoint: r\nr = #7\n",
                    encoding="utf-8")
    code, _, err, seconds = run_capped("check", str(spec))
    assert code == 3 and seconds < 1.0
    [line] = err.splitlines()
    assert line.startswith("error: numeral 100000000000 ")


def bag_chain(path, n, pairs=False):
    """A Bag chain c0 -> c1 -> ... -> c<n-1>, written to path; with `pairs`,
    over Bag . (Id x 2), each successor paired with #<i mod 2>."""
    slot = "(@c{}, #{})" if pairs else "c{}"
    lines = ["functor: Bag . (Id x 2)" if pairs else "functor: Bag",
             "states: " + ", ".join(f"c{i}" for i in range(n)), "point: c0"]
    lines += [f"c{i} = [{slot.format(i + 1, i % 2)}]" for i in range(n - 1)]
    lines.append(f"c{n - 1} = []")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_is_tree_oracle_refuses_a_30_state_chain_at_once(tmp_path):
    # the refutation search at size 5 would walk 30^4 image maps of 5
    # states each
    code, _, err, seconds = run_capped("is-tree", "--oracle",
                                       bag_chain(tmp_path / "chain.spec", 30))
    assert code == 3 and seconds < 10.0
    [line] = err.splitlines()
    assert line.startswith("error: refutation search at size 5 ")


def test_is_tree_oracle_on_a_14_state_chain_drops_image_maps_early(tmp_path):
    # size 6 passes the guard (14^6 steps), but almost every image map is
    # dropped at its first state whose value has no preimage
    code, out, err, seconds = run_capped(
        "is-tree", "--oracle", bag_chain(tmp_path / "chain.spec", 14))
    assert code == 0 and err == "" and seconds < 10.0
    assert out == ["true", "oracle: no refuter found (not a proof)"]


def test_reachable_oracle_on_a_long_chain_is_linear(tmp_path):
    # the breadth-first oracle runs before the definitional one refuses
    code, _, err, seconds = run_capped(
        "reachable", "--oracle", bag_chain(tmp_path / "chain.spec", 20000))
    assert code == 3 and seconds < 5.0
    [line] = err.splitlines()
    assert line == "error: definitional check is limited to 5 states"


@pytest.mark.parametrize("command", ["check", "reachable", "is-tree",
                                     "unravel", "unravel --emit", "dot",
                                     "pairs unravel --emit"])
def test_every_walk_ends_on_a_20000_state_chain(tmp_path, command):
    # one state per level: a recursive walk or a per-level cost that is
    # not constant shows here, under the 1 GB cap.  Plain `unravel` answers
    # from the path counts; with --emit it builds all 20,000 tree levels,
    # also over Bag . (Id x 2), whose levels are factored through a
    # composition
    pairs = command.startswith("pairs ")
    name, *flags = command.removeprefix("pairs ").split()
    argv = [name, bag_chain(tmp_path / "chain.spec", 20000, pairs)]
    emit = tmp_path / "tree.spec"
    if flags:
        argv += [*flags, str(emit)]
    code, out, err, seconds = run_capped(*argv)
    assert code == 0 and err == "" and seconds < 10.0
    assert out
    if flags:
        assert out[-1] == f"wrote {emit}" and emit.stat().st_size > 0


LONG_NAMES = {
    # 20,000 edge ids of 2 to 6 characters: the path names would hold
    # about 1.2 * 10^9 characters
    "paths": lambda n: ["kind: multigraph",
                        "vertices: " + ", ".join(f"v{i}" for i in range(n + 1)),
                        "root: v0"] + [f"edge e{i} v{i} v{i + 1}"
                                       for i in range(n)],
    # one two-character letter, so words are joined by `·`: about 6 * 10^8
    "dfa-inputs": lambda n: ["kind: dfa", "alphabet: ab",
                             "states: " + ", ".join(f"q{i}"
                                                    for i in range(n + 1)),
                             "initial: q0"] + [f"trans q{i} ab q{i + 1}"
                                               for i in range(n)],
}


@pytest.mark.parametrize("command", sorted(LONG_NAMES))
def test_names_past_the_guard_are_refused(tmp_path, command):
    # a 20,000-step chain is within the guard on tree states, but its
    # names are not
    spec = tmp_path / "chain.spec"
    spec.write_text("\n".join(LONG_NAMES[command](20000)) + "\n",
                    encoding="utf-8")
    code, _, err, seconds = run_capped(command, str(spec))
    assert code == 3 and seconds < 5.0
    [line] = err.splitlines()
    assert line.startswith("error: the names of the unfolding ")


def test_a_listing_of_long_multibyte_names_holds_one_copy(tmp_path):
    # the path names of a 6,200-edge chain with edge ids `😀<i>` hold about
    # 1.1 * 10^8 characters, within the name guard, at four bytes each in
    # memory: the listing must not copy thousands of them at once
    n = 6200
    spec = tmp_path / "emoji.spec"
    spec.write_text("\n".join(
        ["kind: multigraph",
         "vertices: " + ", ".join(f"v{i}" for i in range(n + 1)),
         "root: v0"] + [f"edge 😀{i} v{i} v{i + 1}" for i in range(n)])
        + "\n", encoding="utf-8")
    code, _, err, seconds = run_capped("paths", str(spec),
                                       discard_stdout=True)
    assert code in (0, 3) and "Traceback" not in err and seconds < 10.0
    if code == 3:
        [line] = err.splitlines()
        assert line.startswith("error: the names of the unfolding ")


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


class CountingStdout(io.StringIO):
    """A stdout that counts the calls of its write method."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


LOOPS = {
    "dfa-inputs": "kind: dfa\nalphabet: a, b\nstates: q\ninitial: q\n"
                  "trans q a q\ntrans q b q\n",
    "paths": "kind: multigraph\nvertices: p\nroot: p\n"
             "edge e1 p p\nedge e2 p p\n",
}


@pytest.mark.parametrize("command", sorted(LOOPS))
def test_listings_are_not_written_line_by_line(tmp_path, monkeypatch,
                                               command):
    spec = tmp_path / "loop.spec"
    spec.write_text(LOOPS[command], encoding="utf-8")
    out = CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main([command, str(spec), "--maxlen", "10"]) == 0
    # 2^11 - 1 words or paths, one listing line each
    assert len(out.getvalue().splitlines()) > 2047
    assert out.writes < 10


def test_listings_of_several_writes_are_whole(tmp_path, capsys):
    spec = tmp_path / "loop.spec"
    spec.write_text(LOOPS["dfa-inputs"], encoding="utf-8")
    assert main(["dfa-inputs", str(spec), "--maxlen", "12"]) == 0
    # 2^13 - 1 words, more than one write of 4,096 names holds
    words = ["ε"] + ["".join(w) for k in range(1, 13)
                     for w in itertools.product("ab", repeat=k)]
    assert capsys.readouterr().out == (
        "complete: false (maxlen 12)\n"
        f"P = {{{', '.join(words)}}}\ndelta*:\n"
        + "".join(f"  {w} -> q\n" for w in words))


def test_braces_of_several_writes_are_whole(tmp_path, capsys):
    n = 5000
    names = [f"c{i}" for i in range(n)]
    chain_spec = tmp_path / "chain.spec"
    chain_spec.write_text(
        f"functor: Bag\nstates: {', '.join(names)}\npoint: c0\n"
        + "".join(f"c{i} = [c{i + 1}]\n" for i in range(n - 1))
        + f"c{n - 1} = []\n", encoding="utf-8")
    assert main(["reachable", str(chain_spec)]) == 0
    # the levels end with the empty one that stops the iteration
    assert capsys.readouterr().out.splitlines()[1:] == [
        "levels: " + ", ".join(f"{{{x}}}" for x in names) + ", {}",
        f"reachable part = {{{', '.join(names)}}}"]
    loop = tmp_path / "loop.spec"
    loop.write_text("functor: Bag\nstates: r\npoint: r\nr = [r*2]\n",
                    encoding="utf-8")
    assert main(["unravel", str(loop), "--depth", "13"]) == 0
    frontier = ["13:r"] + [f"13:r~{k}" for k in range(2, 2 ** 13 + 1)]
    assert f"frontier: {{{', '.join(frontier)}}}\n" in capsys.readouterr().out


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


COMMANDS = ("check", "reachable", "is-tree", "unravel", "dfa-inputs",
            "paths", "dot")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys,
                                                   command):
    spec = tmp_path / "bytes.spec"
    spec.write_bytes(b"\xff\xfe\x00bad")
    assert main([command, str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "not UTF-8" in line
