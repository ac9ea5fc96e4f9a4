"""Self-tests of the benchmark: inputs, reference checker, failure counting
and tracing.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

import inputs
import reference
import run
import spans
from inputs import Invocation, Model

FIXTURES = run.ROOT / "fixtures"
SEEDS = (0, 1, 2)


def fixture_text(name: str) -> str:
    lines = (FIXTURES / f"{name}.spec").read_text(encoding="utf-8")
    return "".join(ln + "\n" for ln in lines.splitlines()
                   if not ln.startswith("#"))


DIAMOND_BAG = Model("coalgebra", "Bag", ["r", "p", "q", "v"], "r", {
    "r": [("p", 1, ""), ("q", 1, "")],
    "p": [("q", 2, ""), ("v", 1, "")],
    "q": [("v", 1, "")],
    "v": []})
DIAMOND = Model("multigraph", "", ["r", "p", "q", "v"], "r", {
    "r": [("p", 1, "e_rp"), ("q", 1, "e_rq")],
    "p": [("q", 1, "e_pq1"), ("q", 1, "e_pq2"), ("v", 1, "e_pv")],
    "q": [("v", 1, "e_qv")],
    "v": []})
SHARED_LEAF = Model("coalgebra", "Id x Id + 1", ["p", "q"], "p", {
    "p": [("q", 1, ""), ("q", 1, "")], "q": []})
LOOP_DFA = Model("dfa", "", ["q0"], "q0", {"q0": [("q0", 1, "a")]}, ["a"])


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_gives_same_input_bytes(workload):
    def texts(seed):
        return [inputs.render(c.model) for c in inputs.build(workload, seed)]
    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


def test_models_render_as_the_fixture_files():
    assert inputs.render(DIAMOND_BAG) == fixture_text("diamond_bag")
    assert inputs.render(DIAMOND) == fixture_text("diamond")
    assert inputs.render(LOOP_DFA) == fixture_text("loop_dfa")


def test_reference_reproduces_the_readme_numbers():
    assert reference.path_counts(DIAMOND_BAG) == {"r": 1, "p": 1, "q": 3,
                                                  "v": 4}
    assert sum(reference.path_counts(DIAMOND).values()) == 9
    assert reference.reach_levels(DIAMOND_BAG) == [
        {"r"}, {"p", "q"}, {"q", "v"}, {"v"}]
    assert reference.diagnose(SHARED_LEAF) == (
        "sharing", "coproduct of levels has 3 states, carrier has 2")
    assert set(reference.dfa_words(LOOP_DFA, 3)) == {"ε", "a", "aa", "aaa"}


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_generated_inputs_have_their_built_in_verdicts(workload):
    for case in inputs.build(workload, 0):
        if case.intent is not None:
            assert reference.diagnose(case.model)[0] == case.intent, case.name
        if case.intent in ("true", "sharing", "not-reachable"):
            # the DP and the walk-count recurrence agree on acyclic inputs
            walks = reference.walk_levels(case.model, len(case.model.states))
            assert not walks[-1]
            assert reference.path_counts(case.model) == {
                x: sum(level[x] for level in walks)
                for x in case.model.states}


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_predicted_unravellings_stay_below_the_guard(workload):
    for seed in SEEDS:
        for case in inputs.build(workload, seed):
            for inv in case.calls:
                assert reference.tree_size(case, inv) < reference.COALG_GUARD


def test_a_corrupted_output_counts_as_a_failure(tmp_path):
    inv = Invocation("unravel", emit="t.spec", dot="t.dot")
    case = inputs.Case("diamond", 4, DIAMOND_BAG, [inv], "sharing")
    (tmp_path / "diamond.spec").write_text(inputs.render(case.model))
    result = run.run_child(run.call_argv(case, inv, tmp_path),
                           run.child_env())
    golden = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("t.spec", "t.dot")}
    tally = run.Tally()
    tally.add("as produced", run.judge(case, inv, result, tmp_path, golden))
    code, out, err, seconds = result
    corrupted = (code, out.replace("q=3", "q=2"), err, seconds)
    tally.add("wrong copy count", run.judge(case, inv, corrupted, tmp_path,
                                            golden))
    (tmp_path / "t.dot").write_bytes(b"digraph {}\n")
    tally.add("wrong DOT bytes", run.judge(case, inv, result, tmp_path,
                                           golden))
    tally.add("timeout", run.judge(case, inv, (None, "", "", 0.0), tmp_path,
                                   golden))
    assert (tally.attempted, tally.failed) == (4, 3)


def test_malformed_output_is_a_failure_not_a_crash():
    inv = Invocation("dfa-inputs", ["--maxlen", "3"])
    case = inputs.Case("loop", 1, LOOP_DFA, [inv], None, depth=3)
    out = "complete: false (maxlen 3)\nP = {ε, a}\ndelta*:\n  no arrow\n"
    assert reference.check(case, inv, 0, out, {}, None) == [
        "defined words differ", "delta* differs"]


def test_tracing_counts_calls_and_leaves_stdout_alone(tmp_path):
    run.import_coalg()
    coalg = sys.modules["coalg"]
    case = inputs.Case("diamond", 4, DIAMOND_BAG, [Invocation("reachable")],
                       "sharing")
    (tmp_path / "diamond.spec").write_text(inputs.render(case.model))
    argv = run.call_argv(case, case.calls[0], tmp_path)
    plain = run.run_in_process(argv)
    original = coalg.reachability.reach_levels
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        assert sys.modules["coalg.cli"].reach_levels is not original
        traced = run.run_in_process(argv)
    finally:
        restore()
    assert coalg.reachability.reach_levels is original
    assert sys.modules["coalg.cli"].reach_levels is original
    assert traced[:2] == plain[:2]
    metrics = run.layer_metrics(rec, [(case, case.calls[0])], plain[3],
                                traced[3])
    assert metrics["reachability.reach_levels.calls_per_reachable"] == 3
    assert metrics["cli.main.calls"] == 1
    names = {row[1] for row in rec.spans}
    assert {"specfile.parse_spec", "factorization.least_bound",
            "base.FiniteSet.union"} <= names


def test_tail_is_the_eleventh_largest_sample():
    pct, value = run.tail([float(i) for i in range(1, 101)])
    assert (pct, value) == (90.0, 90.0)


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(m, run.unit_of(m)) for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
