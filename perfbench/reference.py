"""Reference checker for the coalg benchmark, independent of `coalg`.

It reads only the generator's `Model` and derives every expectation with its
own code: reachability levels by breadth-first search, copy and path counts
by a dynamic programme over acyclic inputs, and truncated sizes by the
walk-count recurrence

    count_{k+1}[y] = sum_x count_k[x] * mult(x -> y)

up to the depth or maxlen.  `check` compares one CLI result (exit code,
stdout, written files) with those expectations and returns the problems it
finds; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter, deque

from inputs import Case, Invocation, Model

# No generated input may predict an unravelling past coalg's guard.
COALG_GUARD = 10 ** 7


def weights(m: Model) -> dict[str, Counter]:
    """mult(x -> y): slot multiplicity of y in x's structure value."""
    out = {}
    for x in m.states:
        w = Counter()
        for y, n, _ in m.slots[x]:
            w[y] += n
        out[x] = w
    return out


def bfs_order(m: Model) -> list[str]:
    """States reachable from the point, in discovery order."""
    seen, order, queue = {m.point}, [m.point], deque([m.point])
    while queue:
        x = queue.popleft()
        for y, _, _ in m.slots[x]:
            if y not in seen:
                seen.add(y)
                order.append(y)
                queue.append(y)
    return order


def reach_levels(m: Model) -> list[set[str]]:
    """Level 0 is {point}; level k+1 holds the successors of level k.  The
    first level that adds nothing to the union is recorded and ends it."""
    levels = [{m.point}]
    union = {m.point}
    while True:
        nxt = {y for x in levels[-1] for y, _, _ in m.slots[x]}
        levels.append(nxt)
        if nxt <= union:
            return levels
        union |= nxt


def has_reachable_cycle(m: Model) -> bool:
    colour = {}
    for root in bfs_order(m):
        if root in colour:
            continue
        colour[root] = 1
        stack = [(root, iter(m.slots[root]))]
        while stack:
            x, it = stack[-1]
            for y, _, _ in it:
                if colour.get(y) == 1:
                    return True
                if y not in colour:
                    colour[y] = 1
                    stack.append((y, iter(m.slots[y])))
                    break
            else:
                colour[x] = 2
                stack.pop()
    return False


def path_counts(m: Model) -> dict[str, int]:
    """Rooted path counts (with multiplicity) by a topological DP over an
    acyclic reachable part; unreached states count 0."""
    w = weights(m)
    reach = bfs_order(m)
    indeg = Counter()
    for x in reach:
        for y in w[x]:
            indeg[y] += 1
    count = Counter({m.point: 1})
    ready = deque([m.point])
    done = 0
    while ready:
        x = ready.popleft()
        done += 1
        for y, n in w[x].items():
            count[y] += count[x] * n
            indeg[y] -= 1
            if indeg[y] == 0:
                ready.append(y)
    if done != len(reach):
        raise ValueError("path counts need an acyclic reachable part")
    return {x: count[x] for x in m.states}


def walk_levels(m: Model, depth: int) -> list[Counter]:
    """count_k[y] for k = 0..depth by the walk-count recurrence."""
    w = weights(m)
    levels = [Counter({m.point: 1})]
    for _ in range(depth):
        nxt = Counter()
        for x, c in levels[-1].items():
            for y, n in w[x].items():
                nxt[y] += c * n
        levels.append(nxt)
    return levels


def unravelling(m: Model, depth: int | None):
    """(complete, copies per state, frontier size) of the unravelling."""
    if depth is None:
        return True, path_counts(m), 0
    levels = walk_levels(m, depth)
    copies = {x: sum(level[x] for level in levels) for x in m.states}
    return False, copies, sum(levels[-1].values())


def diagnose(m: Model) -> tuple[str, str | None]:
    """The tree verdict with coalg's diagnostic, checked in its order:
    powerset values, reachable cycles, unreached states, shared states."""
    order = bfs_order(m)
    if m.functor == "Pow":
        for x in order:
            if m.slots[x]:
                return "powerset-degenerate", \
                    f"state {x} carries a non-empty powerset value"
    if has_reachable_cycle(m):
        return "cycle", "levels non-empty past bound"
    reached = set(order)
    missing = [x for x in m.states if x not in reached]
    if missing:
        return "not-reachable", f"states never reached: {', '.join(missing)}"
    total = sum(path_counts(m).values())
    if total != len(m.states):
        return "sharing", (f"coproduct of levels has {total} states, "
                           f"carrier has {len(m.states)}")
    return "true", None


def dfa_words(m: Model, maxlen: int | None) -> dict[str, str]:
    """Defined input words (named as coalg names them) -> reached state."""
    out = {"ε": m.point}
    queue = deque([("", m.point)])
    while queue:
        w, q = queue.popleft()
        if maxlen is not None and len(w) >= maxlen:
            continue
        for q2, _, a in m.slots[q]:
            out[w + a] = q2
            queue.append((w + a, q2))
    return out


def output_states(case: Case, inv: Invocation) -> int:
    """States of the object a call builds: the reachable part, the tree, the
    defined words or the rooted paths; 0 for verdict-only calls."""
    m = case.model
    if inv.command == "reachable":
        return len(bfs_order(m))
    if inv.command == "unravel":
        return sum(unravelling(m, case.depth)[1].values())
    if inv.command == "paths":
        return sum(path_counts(m).values())
    if inv.command == "dfa-inputs":
        return len(dfa_words(m, case.depth))
    return 0


def tree_size(case: Case, inv: Invocation) -> int:
    """States of the unravelling a call builds, 0 when it builds none:
    is-tree builds the levels only when no earlier check decides."""
    if inv.command in ("unravel", "paths", "dfa-inputs"):
        return output_states(case, inv)
    if inv.command == "is-tree" and diagnose(case.model)[0] in (
            "true", "not-reachable", "sharing"):
        return sum(path_counts(case.model).values())
    return 0


# --------------------------------------------------------------------------
# checking one CLI result


_GROUP = re.compile(r"\{([^{}]*)\}")


def _names(group: str, sep: str) -> list[str]:
    return [s for s in group.split(sep) if s] if group else []


def _header(text: str, key: str) -> list[str]:
    for line in text.splitlines():
        if line.startswith(key + ": "):
            names = line[len(key) + 2:].split(",")
            return [s.strip().strip('"') for s in names]
    return []


def _expect_line(problems, lines, i, want):
    got = lines[i] if i < len(lines) else "<missing>"
    if got != want:
        problems.append(f"line {i + 1}: expected {want!r}, got {got[:120]!r}")


def check(case: Case, inv: Invocation, code: int, stdout: str,
          files: dict[str, bytes], golden: dict[str, str] | None) -> list[str]:
    """Problems with one result; `files` maps the call's written file names
    to their bytes and `golden`, when given, their expected sha256."""
    m, problems = case.model, []
    lines = stdout.splitlines()
    cmd = inv.command

    def want_code(expected):
        if code != expected:
            problems.append(f"exit code {code}, expected {expected}")

    if cmd == "check":
        want_code(0)
        if m.kind == "multigraph":
            edges = sum(len(s) for s in m.slots.values())
            want = f"valid multigraph: {len(m.states)} vertices, {edges} edges"
        elif m.kind == "dfa":
            trans = sum(len(s) for s in m.slots.values())
            want = (f"valid dfa: {len(m.states)} states, "
                    f"{len(m.alphabet)} letters, {trans} transitions")
        else:
            want = f"valid coalgebra: {len(m.states)} states"
        _expect_line(problems, lines, 0, want)

    elif cmd == "reachable":
        reach = set(bfs_order(m))
        full = len(reach) == len(m.states)
        want_code(0 if full else 1)
        _expect_line(problems, lines, 0,
                     "reachable" if full else "not reachable")
        got = [set(_names(g, ",")) for g in
               _GROUP.findall(lines[1] if len(lines) > 1 else "")]
        if got != reach_levels(m):
            problems.append(f"levels differ: sizes {[len(s) for s in got]} vs "
                            f"{[len(s) for s in reach_levels(m)]}")
        part = _GROUP.findall(lines[2] if len(lines) > 2 else "")
        if len(part) != 1 or set(_names(part[0], ", ")) != reach:
            problems.append("reachable part differs")
        if inv.emit:
            text = files.get(inv.emit, b"").decode("utf-8", "replace")
            if set(_header(text, "states")) != reach:
                problems.append("emitted reachable part has other states")

    elif cmd == "is-tree":
        reason, detail = diagnose(m)
        want_code(0 if reason == "true" else 1)
        _expect_line(problems, lines, 0, "true" if reason == "true"
                     else f"false: {reason} ({detail})")

    elif cmd == "unravel":
        complete, copies, frontier = unravelling(m, case.depth)
        total = sum(copies.values())
        want_code(0)
        _expect_line(problems, lines, 0,
                     f"complete: {'true' if complete else 'false'}")
        _expect_line(problems, lines, 1, f"tree states: {total}")
        _expect_line(problems, lines, 2, "copies: " + ", ".join(
            f"{x}={copies[x]}" for x in m.states))
        rest = lines[3:]
        if not complete:
            got = _GROUP.findall(rest[0] if rest else "")
            if len(got) != 1 or len(_names(got[0], ", ")) != frontier:
                problems.append(f"frontier is not {frontier} states")
        is_tree = complete and all(c == 1 for c in copies.values())
        if ("note: input is already a tree" in rest) != is_tree:
            problems.append("tree note wrong")
        if inv.emit:
            text = files.get(inv.emit, b"").decode("utf-8", "replace")
            if len(_header(text, "states")) != total:
                problems.append("emitted tree has the wrong state count")
            if len(_header(text, "open")) != frontier:
                problems.append("emitted tree has the wrong open states")
        if inv.dot:
            text = files.get(inv.dot, b"").decode("utf-8", "replace")
            # one marker edge into the root plus one edge into every other
            # tree state: as many arrows as tree states
            if text.count(" -> ") != total:
                problems.append("DOT rendering has the wrong edge count")

    elif cmd == "paths":
        counts = path_counts(m)
        total = sum(counts.values())
        want_code(0)
        _expect_line(problems, lines, 0, "complete: true")
        _expect_line(problems, lines, 1, f"{total} rooted paths")
        _expect_line(problems, lines, 2, "targets: " + ", ".join(
            f"{x}={counts[x]}" for x in m.states))
        pairs = [ln.strip().split(" -> ") for ln in lines[4:]]
        if (len({p[0] for p in pairs}) != total
                or Counter(p[-1] for p in pairs) != +Counter(counts)):
            problems.append("path listing differs")

    elif cmd == "dfa-inputs":
        words = dfa_words(m, case.depth)
        want_code(0)
        _expect_line(problems, lines, 0, "complete: true" if case.depth is None
                     else f"complete: false (maxlen {case.depth})")
        got = _GROUP.findall(lines[1] if len(lines) > 1 else "")
        if len(got) != 1 or set(_names(got[0], ", ")) != set(words):
            problems.append("defined words differ")
        runs = dict(ln.strip().partition(" -> ")[::2] for ln in lines[3:])
        if runs != words:
            problems.append("delta* differs")

    else:
        problems.append(f"no reference for command {cmd!r}")

    if golden is not None:
        for name, data in files.items():
            if golden.get(name) != hashlib.sha256(data).hexdigest():
                problems.append(f"{name}: bytes differ from the golden digest")
    return problems
