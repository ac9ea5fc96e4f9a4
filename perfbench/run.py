"""End-to-end and per-layer benchmark of the coalg CLI.

Run from the repository root (Python >= 3.10, stdlib only):

    python3 perfbench/run.py --workload wide-reach --seed 0 --trace 0

Workloads are `wide-reach`, `deep-chain` and `copy-heavy` (see inputs.py).
The inputs are generated from --seed and written as spec files under
`.perfbench_work/`; the program sees only those files.

--trace 0 measures what a user of the CLI sees.  It runs the workload's
fixed list of `python -m coalg.cli` calls (with `src` on PYTHONPATH) as
sequential child processes: a closed loop with one client and never more
than one child at a time.  After each pass over the list the same calls
run once in process, which gives the library time behind `states_per_s`.
Set-up time is `coalg check` on every input, repeated.  Passes repeat
while another one still ends within --seconds of the start, set-up
included, and at least MIN_PASSES times.  Times are in reference seconds,
corrected for the speed of a shared machine (see Clock); a log line before
the result gives the same metrics in raw seconds.

--trace 1 runs the calls in process, alternately untraced and traced, and
reports per-layer metrics from spans recorded around every coalg layer
(spans.py).  Traced stdout must equal untraced stdout byte for byte.

Every output is checked against reference.py, which never imports coalg;
at the default seed the written spec and DOT files must also match the
golden digests in golden.json.  A wrong output counts as a failed call.
The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import inputs
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
CALL_TIMEOUT_S = 30
SETUP_REPEATS = 2
# Passes every run makes, however short --seconds is.  The tail is taken
# over the calls of exactly these passes, so that its sample count, and with
# it the percentile, is the same in every run.  At the workloads' sizes
# set-up and two passes take 28-35 s on a 2-core x86-64 machine, within a
# 40 s run.
MIN_PASSES = 2
# End-to-end times are in reference seconds (see Clock): seconds on a
# machine where CALIBRATION_LOOPS turns of calibration_seconds' loop take
# CALIBRATION_REFERENCE_S.  The constant is fixed once and for all, so only
# comparisons between runs carry meaning; it is near the loop's time on a
# 2.1 GHz x86-64 core under CPython 3.11.
CALIBRATION_LOOPS = 60_000
CALIBRATION_REFERENCE_S = 0.004
IMPORT_PROBES = 5

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("verdict_p50_s", "s"),
    ("verdict_tail_s", "s"), ("states_per_s", "states/s"),
    ("peak_rss_mb", "MB"),
)

# Layers whose time a log-log fit over the rungs turns into an exponent.
SCALED = ("specfile.parse_spec", "specfile.emit_spec",
          "reachability.reach_levels", "unravelling.tree_levels",
          "unravelling.tree_check", "automata.rooted_paths",
          "automata.defined_inputs")

PER_LAYER = (
    "cli.import_s", "cli.main.self_s",
    "specfile.parse_spec.total_s", "specfile.parse_spec.calls",
    "specfile.parse_spec.bytes",
    "specfile.emit_spec.self_s", "specfile.emit_spec.bytes",
    "functors.validate_value.self_s", "functors.validate_value.calls",
    "functors.used_states.self_s", "functors.used_states.calls",
    "functors.fmap.self_s", "functors.fmap.calls",
    "base.FiniteSet.union.self_s", "base.FiniteSet.union.calls",
    "base.TotalMap.init.self_s", "base.TotalMap.init.calls",
    "base.fresh_name.self_s", "base.fresh_name.calls",
    "factorization.FMap.init.self_s", "factorization.FMap.init.calls",
    "factorization.FMap.init.values",
    "factorization.least_bound.self_s", "factorization.least_bound.calls",
    "factorization.least_bound.used",
    "factorization.precise_factorize.self_s",
    "factorization.precise_factorize.calls",
    "factorization.precise_factorize.slots",
    "reachability.reach_levels.total_s", "reachability.reach_levels.self_s",
    "reachability.reach_levels.calls", "reachability.reach_levels.levels",
    "reachability.LevelSequence.union.self_s",
    "reachability.reachable_part.total_s",
    "reachability.is_reachable.total_s",
    "coalgebra.PointedCoalgebra.init.self_s",
    "coalgebra.PointedCoalgebra.init.calls",
    "coalgebra.canonical_graph.self_s", "coalgebra.canonical_graph.edges",
    "coalgebra.reachable_subgraph.total_s",
    "coalgebra.out_edges.self_s", "coalgebra.out_edges.calls",
    "coalgebra.is_acyclic.self_s", "coalgebra.multigraph_to_bag.self_s",
    "unravelling.tree_levels.total_s", "unravelling.tree_levels.self_s",
    "unravelling.tree_levels.calls", "unravelling.tree_levels.levels",
    "unravelling.tree_levels.states",
    "unravelling.TreeLevels.states.self_s",
    "unravelling.TreeLevels.projection.self_s",
    "unravelling.tree_check.total_s",
    "unravelling.unravel.total_s", "unravelling.unravel.self_s",
    "unravelling.copy_counts.self_s",
    "automata.defined_inputs.total_s", "automata.defined_inputs.self_s",
    "automata.defined_inputs.words",
    "automata.rooted_paths.total_s", "automata.rooted_paths.self_s",
    "automata.rooted_paths.paths",
    "automata.dfa_to_coalgebra.self_s",
    "dot.to_dot.self_s", "dot.to_dot.bytes",
    *(f"{name}.exponent" for name in SCALED),
    "reachability.reach_levels.calls_per_reachable",
    "coalgebra.out_edges.calls_per_paths",
    "coalgebra.out_edges.calls_per_is_tree",
    "base.FiniteSet.union.calls_per_least_bound",
    "factorization.FMap.init.values_per_tree_state",
    "trace.overhead_ratio",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith((".exponent", "_ratio")):
        return "1"
    return "count"


# --------------------------------------------------------------------------
# one call, as a child process or in process


class Tally:
    """Attempted and failed calls, with the first problems for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def call_argv(case, inv, work: Path) -> list[str]:
    argv = [inv.command, str(work / f"{case.name}.spec"), *inv.flags]
    if inv.emit:
        argv += ["--emit", str(work / inv.emit)]
    if inv.dot:
        argv += ["--dot", str(work / inv.dot)]
    return argv


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_child(argv, env):
    """(exit code or None on timeout, stdout, stderr, seconds)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "coalg.cli", *argv],
                              env=env, capture_output=True,
                              encoding="utf-8", timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", "timeout", time.perf_counter() - start
    return (proc.returncode, proc.stdout, proc.stderr,
            time.perf_counter() - start)


def run_in_process(argv):
    """Same as run_child, through coalg.cli.main in this process.  The
    benchmark's own objects are first moved out of the garbage collector's
    reach, so that collections during the call cost what they would in a
    fresh process."""
    gc.collect()
    gc.freeze()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["coalg.cli"].main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed call, not the end of the run
        err.write(traceback.format_exc())
        code = -1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def clear_outputs(inv, work: Path) -> None:
    for name in (inv.emit, inv.dot):
        if name:
            (work / name).unlink(missing_ok=True)


def judge(case, inv, result, work: Path, golden) -> list[str]:
    code, stdout, stderr, _ = result
    if code is None:
        return [f"timeout after {CALL_TIMEOUT_S} s"]
    problems = []
    if "Traceback" in stderr:
        problems.append("traceback: " + stderr.strip().splitlines()[-1])
    files = {}
    for name in (inv.emit, inv.dot):
        if name:
            path = work / name
            if path.is_file():
                files[name] = path.read_bytes()
            else:
                problems.append(f"{name} not written")
    return problems + reference.check(case, inv, code, stdout, files, golden)


# --------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it: the eleventh-largest sample, at nearest rank
    N - 10 of N."""
    xs = sorted(samples)
    rank = max(1, len(xs) - 10)
    return 100 * rank / len(xs), xs[rank - 1]


def exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) over log(size); 0 with fewer than
    two rungs of measurable time."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# --------------------------------------------------------------------------
# the two modes


def paced(deadline: float, minimum: int):
    """Yield pass numbers: at least `minimum`, then more while a pass as
    long as the longest so far still ends before `deadline`
    (a time.perf_counter() value)."""
    longest, n = 0.0, 0
    while n < minimum or time.perf_counter() + longest <= deadline:
        begun = time.perf_counter()
        yield n
        longest = max(longest, time.perf_counter() - begun)
        n += 1


def import_coalg() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import coalg.cli  # noqa: F401  (registers every coalg module)


def calibration_seconds() -> float:
    """Time of a fixed piece of pure-Python arithmetic."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i
    return time.perf_counter() - start


class Clock:
    """Times calls in reference seconds.

    The machines this runs on are shared: a busy neighbour can slow every
    process here by a third or more, for seconds or minutes at a time.  A
    calibration loop runs between consecutive calls, and each call's
    seconds are scaled by CALIBRATION_REFERENCE_S over the mean time of the
    loops on either side of it.  The loop only tracks the calls if both run
    on the same processor, so `main` pins this process, and with it every
    child, to one.  The raw seconds are returned too, for the log.
    """

    def __init__(self):
        self.last = calibration_seconds()

    def time(self, fn, *args):
        """(result of fn, reference seconds); fn returns a tuple whose
        last item is its raw seconds."""
        result = fn(*args)
        before, self.last = self.last, calibration_seconds()
        return result, result[-1] * 2 * CALIBRATION_REFERENCE_S / (
            before + self.last)


def summary(setup, child, library, states) -> dict[str, float]:
    """The time metrics from per-call seconds: `child` and `library` hold
    one list of seconds per call of the list, one entry per pass."""
    first = [t for times in child for t in times[:MIN_PASSES]]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(times) for times in child),
        "verdict_p50_s": statistics.median(t for ts in child for t in ts),
        "verdict_tail_s": tail(first)[1],
        "states_per_s": states / sum(min(times) for times in library),
    }


def end_to_end(cases, calls, work, golden, seconds, tally):
    """Set-up calls, then passes over the call list until --seconds are
    used.  wall_s is the time of one pass over the list: the sum of each
    call's median over the passes.  states_per_s uses each call's best
    in-process time, the least disturbed by the machine.  The tail covers
    the first MIN_PASSES passes only (see MIN_PASSES)."""
    deadline = time.perf_counter() + seconds
    env = child_env()
    run_child(["check", str(work / f"{cases[0].name}.spec")], env)  # warm-up
    import_coalg()
    clock = Clock()
    setup, raw_setup = [], []
    for _ in range(SETUP_REPEATS):
        for case in cases:
            inv = inputs.Invocation("check")
            result, t = clock.time(run_child, call_argv(case, inv, work), env)
            tally.add(f"{case.name} check",
                      judge(case, inv, result, work, golden))
            setup.append(t)
            raw_setup.append(result[-1])

    states = sum(len(case.model.states) + reference.output_states(case, inv)
                 for case, inv in calls)
    child, raw_child = [[] for _ in calls], [[] for _ in calls]
    library, raw_library = [[] for _ in calls], [[] for _ in calls]
    for passes in paced(deadline, MIN_PASSES):
        for k, (case, inv) in enumerate(calls):
            clear_outputs(inv, work)
            result, t = clock.time(run_child, call_argv(case, inv, work), env)
            tally.add(f"{case.name} {inv.command}",
                      judge(case, inv, result, work, golden))
            child[k].append(t)
            raw_child[k].append(result[-1])
        for k, (case, inv) in enumerate(calls):
            clear_outputs(inv, work)
            result, t = clock.time(run_in_process,
                                   call_argv(case, inv, work))
            tally.add(f"{case.name} {inv.command} (in process)",
                      judge(case, inv, result, work, golden))
            library[k].append(t)
            raw_library[k].append(result[-1])

    metrics = summary(setup, child, library, states)
    raw = summary(raw_setup, raw_child, raw_library, states)
    pct = tail([t for times in child for t in times[:MIN_PASSES]])[0]
    share = sum(map(min, library)) / metrics["wall_s"]
    print(f"{passes + 1} passes of {len(calls)} calls; tail = p{pct:.4g} of "
          f"the {len(calls) * MIN_PASSES} call times of the first "
          f"{MIN_PASSES} passes; {states} states per pass; in-process "
          f"library time is {share:.1%} of the calls' wall time")
    print("raw seconds: " + ", ".join(f"{name} {value:.6g}"
                                      for name, value in raw.items()))
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = rss / 1024  # ru_maxrss is in KiB on Linux
    return metrics


def import_seconds(env) -> float:
    probe = ("import time; t = time.perf_counter(); import coalg.cli; "
             "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=CALL_TIMEOUT_S)
        times.append(float(out.stdout))
    return statistics.median(times)


def layer_metrics(rec: spans.Recorder, calls, plain_s: float,
                  traced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    agg: dict[str, float] = defaultdict(float)
    per_rung: dict[tuple[str, int], float] = defaultdict(float)
    per_command: dict[tuple[str, str], int] = defaultdict(int)
    for (i, name), (n, total, own) in rec.stats.items():
        agg[f"{name}.calls"] += n
        agg[f"{name}.total_s"] += total
        agg[f"{name}.self_s"] += own
        case, inv = calls[i]
        per_rung[(name, case.rung)] += total
        per_command[(name, inv.command)] += n
    for (_, key), n in rec.counts.items():
        agg[key] += n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    commands = Counter(inv.command for _, inv in calls)
    rungs = sorted({case.rung for case, _ in calls})
    for name in SCALED:
        agg[f"{name}.exponent"] = exponent(
            [(n, per_rung[(name, n)]) for n in rungs])
    agg["reachability.reach_levels.calls_per_reachable"] = ratio(
        per_command[("reachability.reach_levels", "reachable")],
        commands["reachable"])
    agg["coalgebra.out_edges.calls_per_paths"] = ratio(
        per_command[("coalgebra.out_edges", "paths")], commands["paths"])
    agg["coalgebra.out_edges.calls_per_is_tree"] = ratio(
        per_command[("coalgebra.out_edges", "is-tree")], commands["is-tree"])
    agg["base.FiniteSet.union.calls_per_least_bound"] = ratio(
        rec.by_parent[("base.FiniteSet.union", "factorization.least_bound")],
        agg["factorization.least_bound.calls"])
    agg["factorization.FMap.init.values_per_tree_state"] = ratio(
        agg["factorization.FMap.init.values_in_tree_levels"],
        agg["unravelling.tree_levels.states"])
    agg["trace.overhead_ratio"] = ratio(traced_s, plain_s)
    return agg


def per_layer(calls, work, golden, seconds, tally, spans_path):
    deadline = time.perf_counter() + seconds
    env = child_env()
    import_coalg()
    cli_import = import_seconds(env)
    passes: list[dict[str, float]] = []
    rec = None
    for _ in paced(deadline, 1):
        plain, plain_s = [], 0.0
        for case, inv in calls:
            clear_outputs(inv, work)
            result = run_in_process(call_argv(case, inv, work))
            tally.add(f"{case.name} {inv.command}",
                      judge(case, inv, result, work, golden))
            plain.append(result)
            plain_s += result[3]
        rec = spans.Recorder()
        restore = spans.install(rec)
        traced_s = 0.0
        try:
            for i, (case, inv) in enumerate(calls):
                rec.invocation = i
                clear_outputs(inv, work)
                result = run_in_process(call_argv(case, inv, work))
                problems = judge(case, inv, result, work, golden)
                if result[:2] != plain[i][:2]:
                    problems.append("traced stdout or exit code differs "
                                    "from the untraced run")
                tally.add(f"{case.name} {inv.command} (traced)", problems)
                traced_s += result[3]
        finally:
            restore()
        passes.append(layer_metrics(rec, calls, plain_s, traced_s))
    rec.write(spans_path)

    counts = [m for m in PER_LAYER if unit_of(m) in ("count", "bytes")]
    unstable = [m for m in counts
                if len({p.get(m, 0) for p in passes}) > 1]
    print(f"{len(passes)} traced passes of {len(calls)} calls; "
          f"{len(rec.spans)} spans in the last, written to {spans_path}")
    if unstable:
        print("counts that differ between passes: " + ", ".join(unstable))
    metrics = {m: statistics.median(p.get(m, 0.0) for p in passes)
               for m in PER_LAYER}
    metrics["cli.import_s"] = cli_import
    return metrics


# --------------------------------------------------------------------------


def load_golden(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coalg" / "cli.py").is_file():
        print(f"error: no coalg sources under {SRC}", file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cases = inputs.build(args.workload, args.seed)
    calls = [(case, inv) for case in cases for inv in case.calls]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        for case in cases:
            (work / f"{case.name}.spec").write_text(
                inputs.render(case.model), encoding="utf-8")
        golden = load_golden(args.workload, args.seed)
        tally = Tally()
        print(f"coalg benchmark: workload {args.workload}, seed {args.seed}, "
              f"trace {args.trace}; python {platform.python_version()}, "
              f"{os.cpu_count()} cpus, {platform.platform()}")
        if args.trace:
            values = per_layer(calls, work, golden, args.seconds, tally,
                               WORK / f"spans-{args.workload}.tsv")
            units = {m: unit_of(m) for m in PER_LAYER}
        else:
            values = end_to_end(cases, calls, work, golden, args.seconds,
                                tally)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(f"fail_ratio {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} calls)")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
