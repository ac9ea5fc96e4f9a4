"""The cyclic garbage collector is paused while a CLI command runs
(`coalg.cli._run`).

The pause is safe only if no command leaves a reference cycle behind, since
nothing would collect one until the command ends.  Every command, with each
of its flags, is run on every fixture and on seeded random inputs, under
`gc.DEBUG_SAVEALL`, and must leave `gc.garbage` empty; the runs cover exit
codes 0 to 3.  `main` must give the caller back the collector as it found
it, on every way out.  A cycle would also show as memory held: the budget
test bounds the peak a chain costs per state.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import random
import tracemalloc

import pytest

from coalg import cli, emit_spec
from coalg.cli import _build_parser, _run, main

import generators
from conftest import FIXTURE_DIR, FIXTURE_NAMES
from test_cli import bag_chain

COMMANDS = (
    ("check",),
    ("reachable",),
    ("reachable", "--emit", "out.spec"),
    ("reachable", "--oracle"),
    ("is-tree",),
    ("is-tree", "--oracle"),
    ("unravel",),
    ("unravel", "--depth", "3"),
    ("unravel", "--emit", "out.spec"),
    ("unravel", "--dot", "out.dot"),
    ("dfa-inputs",),
    ("dfa-inputs", "--maxlen", "4", "--emit", "out.spec", "--dot", "out.dot"),
    ("paths",),
    ("paths", "--maxlen", "4", "--emit", "out.spec", "--dot", "out.dot"),
    ("dot",),
    ("dot", "--out", "out.dot"),
)

# input errors and guard refusals, with their exit codes: a missing file, a
# malformed one, flags out of range, and loops whose unravelling to depth 2
# has 10^18 states and whose words to length 40 number 2^41 - 1
FAILING = {
    "missing": (None, [(("check",), 2), (("unravel",), 2)]),
    "malformed": ("functor: Id\nstates: p\npoint: q\np = @p\n",
                  [(("check",), 2), (("reachable",), 2)]),
    "runaway": ("functor: Bag\nstates: r\npoint: r\nr = [r*1000000000]\n",
                [(("unravel", "--depth", "2"), 3),
                 (("unravel", "--depth", "0"), 2),
                 (("unravel", "--depth", "2", "--emit", "out.spec"), 3)]),
    "cyclic-dfa": ("kind: dfa\nalphabet: a, b\nstates: q\ninitial: q\n"
                   "trans q a q\ntrans q b q\n",
                   [(("dfa-inputs", "--maxlen", "40"), 3),
                    (("dfa-inputs", "--maxlen", "-1"), 2)]),
}


def _seeded(seed: int) -> str:
    """One random coalgebra, DAG, automaton or multigraph, by seed."""
    rng = random.Random(seed)
    draw = (lambda: generators.random_coalgebra(rng, max_states=4,
                                                open_states=True),
            lambda: generators.random_shared_dag(rng, max_states=6),
            lambda: generators.random_acyclic_dfa(rng),
            lambda: generators.random_dfa(rng),
            lambda: generators.random_multigraph(rng))[seed % 5]
    return emit_spec(draw())


# every command on every fixture and seeded input, whatever its exit code
INPUTS = {
    **{name: ((FIXTURE_DIR / f"{name}.spec").read_text(encoding="utf-8"),
              [(cmd, None) for cmd in COMMANDS]) for name in FIXTURE_NAMES},
    **{f"seed-{seed}": (_seeded(seed), [(cmd, None) for cmd in COMMANDS])
       for seed in range(25)},
    **FAILING,
}


@contextlib.contextmanager
def collector(enabled: bool):
    """The cyclic garbage collector switched on or off, and back to how it
    was afterwards."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def run_saving_garbage(argv: list[str]) -> tuple[int, list]:
    """The exit code of one command run through `_run`, and the garbage the
    collector finds afterwards: the objects in unreachable reference
    cycles that the command made."""
    args = _build_parser(argv[0]).parse_args(argv)
    out = io.StringIO()
    # argparse's own cycles go first; everything older than the command is
    # left out of the search
    gc.collect()
    gc.freeze()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            code = _run(args)
        del args
        gc.collect()
        return code, list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.unfreeze()


@pytest.mark.parametrize("name", INPUTS)
def test_no_command_leaves_a_reference_cycle(name, tmp_path, monkeypatch):
    text, commands = INPUTS[name]
    if text is not None:
        (tmp_path / "in.spec").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    if name.startswith("seed-"):
        # the seeded inputs may be cyclic and branch widely: a small guard
        # ends each command at once, with exit 3 where it would be large
        monkeypatch.setenv("COALG_GUARD", "3000")
    with collector(False):
        for cmd, expected in commands:
            code, garbage = run_saving_garbage([cmd[0], "in.spec", *cmd[1:]])
            assert code == expected if expected is not None \
                else code in (0, 1, 2, 3)
            assert garbage == [], (cmd, garbage[:10])


def test_the_cycle_check_finds_a_cycle(monkeypatch):
    # a command that does make a cycle is caught
    def cyclic(args):
        node = {}
        node["self"] = node
        return 0

    monkeypatch.setattr(cli, "cmd_check", cyclic)
    code, garbage = run_saving_garbage(["check", "in.spec"])
    assert code == 0 and len(garbage) == 1 and isinstance(garbage[0], dict)


# one command for each exit code
BY_CODE = {
    0: ["check", "{fixtures}/diamond_bag.spec"],
    1: ["is-tree", "{fixtures}/shared_leaf.spec"],
    2: ["check", "{fixtures}/missing.spec"],
    3: ["unravel", "{tmp}/runaway.spec", "--depth", "2"],
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("code", sorted(BY_CODE))
def test_main_gives_back_the_collector_as_it_found_it(code, enabled,
                                                       tmp_path, capsys):
    (tmp_path / "runaway.spec").write_text(FAILING["runaway"][0],
                                           encoding="utf-8")
    argv = [a.format(fixtures=FIXTURE_DIR, tmp=tmp_path)
            for a in BY_CODE[code]]
    with collector(enabled):
        assert main(argv) == code
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"],
                                  ["check", "--no-such-flag", "x.spec"],
                                  ["no-such-command"], []],
                         ids=["help", "command-help", "bad-flag",
                              "bad-command", "nothing"])
def test_argparse_exits_leave_the_collector_alone(argv, enabled, capsys):
    with collector(enabled):
        with pytest.raises(SystemExit):
            main(argv)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_an_uncaught_error_gives_back_the_collector(enabled):
    def crash(args):
        assert not gc.isenabled()
        raise RuntimeError("boom")

    with collector(enabled):
        with pytest.raises(RuntimeError, match="boom"):
            _run(argparse.Namespace(fn=crash))
        assert gc.isenabled() is enabled


def peak_per_state(argv: list[str], states: int) -> float:
    """Peak bytes traced while `main(argv)` runs, per state."""
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / states


@pytest.mark.parametrize("command", [["reachable"],
                                     ["unravel", "--depth", "1000000"]],
                         ids=["reachable", "unravel-depth"])
def test_a_chain_costs_a_bounded_peak_per_state(command, tmp_path):
    # on a 4,000-state Bag chain, under Python 3.11, `reachable` peaks at
    # 1,060 bytes per state and `unravel --depth` at 1,200 (the spec text,
    # the parsed chain, the levels and, for unravel, the tree); the bounds
    # leave a quarter of headroom.  A reference cycle kept alive by the paused
    # collector would hold a level or a tree state past its use and show
    # here
    n = 4000
    spec = bag_chain(tmp_path / "chain.spec", n)
    bound = {"reachable": 1325, "unravel": 1500}[command[0]]
    assert peak_per_state([command[0], spec, *command[1:]], n) <= bound
