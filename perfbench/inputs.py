"""Seeded input families for the coalg benchmark.

Every input is first built as a `Model`, the benchmark's own description of
the object (states, point, weighted successor slots), and only then rendered
as spec-file text.  The reference checker reads the model, never the text
and never the `coalg` package, so the expectations it derives are
independent of the program under test.

Each workload is a ladder of doubling rungs.  A rung holds a few inputs and
the CLI invocations run on them; the same seed always yields the same bytes.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field

# The three workloads, each a ladder of doubling rungs (input states per rung).
# The top rungs are sized so that the constructions, not interpreter start-up,
# take most of each call, and one benchmark run still fits half a minute.
LADDERS = {
    "wide-reach": (192, 384, 768),
    "deep-chain": (256, 512, 1024),
    "copy-heavy": (512, 1024, 2048),
}

# States of the forward DFA on a deep-chain rung of n: 4n, so that listing
# its defined words outweighs start-up as the chains' constructions do.
DFA_STATES_PER_RUNG = 4
# Truncation depth of the bag-weight-2 5-cycle on each copy-heavy rung:
# 2^(d+1) - 1 tree states, so the depth ladder doubles with the rung.
CYCLE_DEPTH = {512: 9, 1024: 10, 2048: 11}
# --maxlen of the looping two-letter DFA on each copy-heavy rung.
LOOP_MAXLEN = {512: 12, 1024: 13, 2048: 14}


@dataclass
class Model:
    """One generated object in the checker's terms.

    `slots[x]` lists x's successor slots in written order as
    (target, multiplicity, label): the label is the letter of a DFA
    transition, the edge id of a multigraph edge, the constant of a
    `Bag . (Id x 2)` pair, and empty otherwise.
    """

    kind: str                       # "coalgebra", "multigraph" or "dfa"
    functor: str                    # functor text of a coalgebra, else ""
    states: list[str]
    point: str
    slots: dict[str, list[tuple[str, int, str]]]
    alphabet: list[str] = field(default_factory=list)
    accepting: list[str] = field(default_factory=list)


@dataclass
class Invocation:
    """One CLI call: `coalg <command> <input> <flags>`.

    `emit`/`dot` name the files the call writes, relative to the work
    directory; the runner turns them into `--emit`/`--dot` flags.
    """

    command: str
    flags: list[str] = field(default_factory=list)
    emit: str | None = None
    dot: str | None = None


@dataclass
class Case:
    """An input file, the rung it belongs to, and the calls made on it."""

    name: str
    rung: int
    model: Model
    calls: list[Invocation]
    intent: str | None              # is-tree verdict built in; None for DFAs
    depth: int | None = None        # unravel --depth / dfa-inputs --maxlen


def render(m: Model) -> str:
    """Spec-file text of a model (see the `coalg.specfile` grammar)."""
    if m.kind == "multigraph":
        lines = ["kind: multigraph", f"vertices: {', '.join(m.states)}",
                 f"root: {m.point}"]
        for x in m.states:
            lines += [f"edge {label} {x} {y}" for y, _, label in m.slots[x]]
        return "\n".join(lines) + "\n"
    if m.kind == "dfa":
        lines = ["kind: dfa", f"alphabet: {', '.join(m.alphabet)}",
                 f"states: {', '.join(m.states)}", f"initial: {m.point}"]
        if m.accepting:
            lines.append(f"accepting: {', '.join(m.accepting)}")
        for x in m.states:
            lines += [f"trans {x} {a} {y}" for y, _, a in m.slots[x]]
        return "\n".join(lines) + "\n"
    lines = ["kind: coalgebra", f"functor: {m.functor}",
             f"states: {', '.join(m.states)}", f"point: {m.point}"]
    for x in m.states:
        if m.functor == "Pow":
            body = "{|" + ", ".join(y for y, _, _ in m.slots[x]) + "|}"
        elif m.functor == "Bag":
            body = "[" + ", ".join(f"{y}*{n}" for y, n, _ in m.slots[x]) + "]"
        else:  # Bag . (Id x 2)
            body = "[" + ", ".join(f"(@{y}, #{b})*{n}"
                                   for y, n, b in m.slots[x]) + "]"
        lines.append(f"{x} = {body}")
    return "\n".join(lines) + "\n"


def _merge(pairs):
    """Merge equal (target, label) slots into one with summed multiplicity."""
    merged: dict[tuple[str, str], int] = {}
    for y, label in pairs:
        merged[(y, label)] = merged.get((y, label), 0) + 1
    return [(y, n, label) for (y, label), n in merged.items()]


def _coalgebra(functor, states, point, succ, rng) -> Model:
    """Coalgebra model from plain successor lists, shaped for `functor`."""
    slots = {}
    for x in states:
        if functor == "Pow":
            slots[x] = [(y, 1, "") for y in dict.fromkeys(succ[x])]
        elif functor == "Bag":
            slots[x] = _merge((y, "") for y in succ[x])
        else:
            slots[x] = _merge((y, str(rng.randrange(2))) for y in succ[x])
    return Model("coalgebra", functor, states, point, slots)


def _multigraph(states, point, succ) -> Model:
    slots, k = {}, 0
    for x in states:
        slots[x] = []
        for y in succ[x]:
            slots[x].append((y, 1, f"e{k}"))
            k += 1
    return Model("multigraph", "", states, point, slots)


# --------------------------------------------------------------------------
# wide-reach: wide cyclic levels, reachable by construction


def _wide_graph(rng, n, orphans=0):
    """Hamiltonian cycle through n states plus two random permutations, so
    every state has fan-out and fan-in 3; `orphans` more states form a cycle
    of their own that the point cannot reach.  (Uniformly random extra
    targets would leave some states with fan-in 1, and how many levels it
    takes to reach them would swing the cost by a third from seed to seed.)
    """
    states = [f"s{i}" for i in range(n)]
    order = [states[0]] + rng.sample(states[1:], n - 1)
    succ = {x: [order[(i + 1) % n]] for i, x in enumerate(order)}
    for _ in range(2):
        for x, y in zip(states, rng.sample(states, n)):
            succ[x].append(y)
    lost = [f"u{i}" for i in range(orphans)]
    for i, x in enumerate(lost):
        succ[x] = [lost[(i + 1) % orphans], rng.choice(lost)]
    return states + lost, succ


def wide_reach(seed: int) -> list[Case]:
    cases = []
    for n in LADDERS["wide-reach"]:
        rng = random.Random(f"wide-reach/{seed}/{n}")
        states, succ = _wide_graph(rng, n)
        bag = _coalgebra("Bag", states, "s0", succ, rng)
        pairs_states, pairs_succ = _wide_graph(rng, n, orphans=n // 8)
        pairs = _coalgebra("Bag . (Id x 2)", pairs_states, "s0", pairs_succ,
                           rng)
        pow_states, pow_succ = _wide_graph(rng, n)
        powm = _coalgebra("Pow", pow_states, "s0", pow_succ, rng)
        graph = _multigraph(states, "s0", succ)
        # `check` on every input is the set-up measurement (setup_s); is-tree
        # skips the pairs input, whose diagnosis and path repeat the bag's
        for tag, model, intent, is_tree in (
                ("bag", bag, "cycle", True),
                ("pairs", pairs, "cycle", False),
                ("pow", powm, "powerset-degenerate", True),
                ("graph", graph, "cycle", True)):
            name = f"wide-{tag}-{n}"
            calls = [Invocation("reachable", emit=f"{name}.reach.spec")]
            if is_tree:
                calls.append(Invocation("is-tree"))
            cases.append(Case(name, n, model, calls, intent))
    return cases


# --------------------------------------------------------------------------
# deep-chain: about n levels of size one


def _chain(n, back_edge=False, orphan=False) -> Model:
    states = [f"c{i}" for i in range(n)]
    succ = {x: [y] for x, y in zip(states, states[1:])}
    succ[states[-1]] = [states[0]] if back_edge else []
    if orphan:
        states.append("orphan")
        succ["orphan"] = [states[n // 2]]
    return _coalgebra("Bag", states, "c0", succ, None)


def _forward_dfa(rng, n) -> Model:
    """Partial DFA over {a, b}: each state defines one letter, leading one
    to three states ahead, so the defined words form a single long path."""
    states = [f"q{i}" for i in range(n)]
    slots = {x: [] for x in states}
    for i, x in enumerate(states):
        j = i + rng.randint(1, 3)
        if j < n:
            slots[x].append((states[j], 1, rng.choice("ab")))
    accepting = [x for x in states if rng.random() < 0.25]
    return Model("dfa", "", states, states[0], slots, ["a", "b"], accepting)


def deep_chain(seed: int) -> list[Case]:
    cases = []
    for n in LADDERS["deep-chain"]:
        rng = random.Random(f"deep-chain/{seed}/{n}")
        # reachable runs on the looping and the orphaned chain: the tree
        # chain would repeat the looping one's levels
        cases.append(Case(f"deep-tree-{n}", n, _chain(n),
                          [Invocation("is-tree"), Invocation("unravel")],
                          "true"))
        cases.append(Case(f"deep-loop-{n}", n, _chain(n, back_edge=True),
                          [Invocation("reachable")], "cycle"))
        cases.append(Case(f"deep-orphan-{n}", n, _chain(n, orphan=True),
                          [Invocation("reachable"), Invocation("is-tree")],
                          "not-reachable"))
        cases.append(Case(f"deep-dfa-{n}", n,
                          _forward_dfa(rng, DFA_STATES_PER_RUNG * n),
                          [Invocation("dfa-inputs")], None))
    return cases


# --------------------------------------------------------------------------
# copy-heavy: output about twice the input, or exponential at a cap


def _shared_dag(rng, n):
    """Random recursive tree on n states plus about n extra edges from inner
    states into later leaves: every leaf copy count is 1 + its extra
    in-edges, so the unravelling has about 2n states."""
    states = [f"d{i}" for i in range(n)]
    succ = {x: [] for x in states}
    for i in range(1, n):
        succ[states[rng.randrange(i)]].append(states[i])
    inner = [i for i, x in enumerate(states) if succ[x]]
    leaves = [i for i, x in enumerate(states) if not succ[x]]
    for _ in range(n):
        v = rng.choice(leaves)
        u = inner[rng.randrange(bisect.bisect_left(inner, v))]
        succ[states[u]].append(states[v])
    return states, succ


def _weighted_cycle(k=5, weight=2) -> Model:
    states = [f"z{i}" for i in range(k)]
    slots = {x: [(states[(i + 1) % k], weight, "")]
             for i, x in enumerate(states)}
    return Model("coalgebra", "Bag", states, states[0], slots)


def _loop_dfa(rng) -> Model:
    """Two-letter DFA whose every transition is defined and which loops."""
    states = ["q0", "q1", "q2"]
    slots = {x: [(rng.choice(states), 1, a) for a in "ab"] for x in states}
    return Model("dfa", "", states, "q0", slots, ["a", "b"], ["q1"])


def copy_heavy(seed: int) -> list[Case]:
    cases = []
    for n in LADDERS["copy-heavy"]:
        rng = random.Random(f"copy-heavy/{seed}/{n}")
        states, succ = _shared_dag(rng, n)
        name = f"copy-dag-{n}"
        cases.append(Case(name, n, _coalgebra("Bag", states, "d0", succ, rng),
                          [Invocation("unravel", emit=f"{name}.tree.spec",
                                      dot=f"{name}.tree.dot"),
                           Invocation("is-tree")], "sharing"))
        cases.append(Case(f"copy-graph-{n}", n,
                          _multigraph(states, "d0", succ),
                          [Invocation("paths")], "sharing"))
        d = CYCLE_DEPTH[n]
        name = f"copy-cycle-{n}"
        cases.append(Case(name, n, _weighted_cycle(),
                          [Invocation("unravel", ["--depth", str(d)],
                                      emit=f"{name}.tree.spec",
                                      dot=f"{name}.tree.dot")],
                          "cycle", depth=d))
        d = LOOP_MAXLEN[n]
        cases.append(Case(f"copy-loop-{n}", n, _loop_dfa(rng),
                          [Invocation("dfa-inputs", ["--maxlen", str(d)])],
                          None, depth=d))
    return cases


WORKLOADS = {"wide-reach": wide_reach, "deep-chain": deep_chain,
             "copy-heavy": copy_heavy}


def build(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](seed)
