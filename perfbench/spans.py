"""Span recorder for the traced, in-process benchmark run.

`install` wraps the public functions and methods of the `coalg` modules
from outside: no source file changes.  A function is replaced in every
`coalg.*` namespace that bound it, because `cli`, `reachability` and
`unravelling` import functions by name; a method is replaced on its class;
`fresh_namer` is replaced by a factory whose allocators are wrapped too.

Each call becomes a span (id, name, start, end, parent id, invocation id).
Spans stay in memory until `write`.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


def _fmap_values(rec, fmap) -> dict[str, int]:
    """FMap values, also counted apart when built inside tree_levels: the
    re-validation a trusted constructor would skip."""
    n = len(fmap.values)
    if rec.is_open("unravelling.tree_levels"):
        return {"values": n, "values_in_tree_levels": n}
    return {"values": n}


# (module, function, counter hook): a hook maps (recorder, call arguments,
# result) to the work counts the call adds.
FUNCTIONS = (
    ("cli", "main", None),
    ("specfile", "parse_spec",
     lambda rec, a, r: {"bytes": len(a[0].encode("utf-8"))}),
    ("specfile", "emit_spec",
     lambda rec, a, r: {"bytes": len(r.encode("utf-8"))}),
    ("functors", "validate_value", None),
    ("functors", "used_states", None),
    ("functors", "fmap", None),
    ("factorization", "least_bound",
     lambda rec, a, r: {"used": len(r.sub)}),
    ("factorization", "precise_factorize",
     lambda rec, a, r: {"slots": len(r.middle)}),
    ("reachability", "reach_levels",
     lambda rec, a, r: {"levels": len(r.levels)}),
    ("reachability", "reachable_part", None),
    ("reachability", "is_reachable", None),
    ("coalgebra", "canonical_graph",
     lambda rec, a, r: {"edges": len(r.edges)}),
    ("coalgebra", "reachable_subgraph", None),
    ("coalgebra", "is_acyclic", None),
    ("coalgebra", "multigraph_to_bag", None),
    ("unravelling", "tree_levels",
     lambda rec, a, r: {"levels": len(r.levels),
                        "states": sum(len(level) for level in r.levels)}),
    ("unravelling", "tree_check", None),
    ("unravelling", "unravel", None),
    ("unravelling", "copy_counts", None),
    ("automata", "defined_inputs",
     lambda rec, a, r: {"words": len(r.tree.carrier)}),
    ("automata", "rooted_paths",
     lambda rec, a, r: {"paths": len(r.tree.carrier)}),
    ("automata", "dfa_to_coalgebra", None),
    ("dot", "to_dot", lambda rec, a, r: {"bytes": len(r.encode("utf-8"))}),
)

# (module, class, method, span name, counter hook)
METHODS = (
    ("base", "FiniteSet", "union", "base.FiniteSet.union", None),
    ("base", "TotalMap", "__init__", "base.TotalMap.init", None),
    ("factorization", "FMap", "__init__", "factorization.FMap.init",
     lambda rec, a, r: _fmap_values(rec, a[0])),
    ("coalgebra", "PointedCoalgebra", "__post_init__",
     "coalgebra.PointedCoalgebra.init", None),
    ("coalgebra", "Multigraph", "out_edges", "coalgebra.out_edges", None),
    ("reachability", "LevelSequence", "union",
     "reachability.LevelSequence.union", None),
    ("unravelling", "TreeLevels", "states", "unravelling.TreeLevels.states",
     None),
    ("unravelling", "TreeLevels", "projection",
     "unravelling.TreeLevels.projection", None),
)


class Recorder:
    """Spans and per-invocation aggregates of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.invocation = 0
        self._stack: list[list] = []
        self._open: Counter = Counter()
        # (invocation, name) -> [calls, total_s, self_s]
        self.stats: dict[tuple[int, str], list] = defaultdict(
            lambda: [0, 0.0, 0.0])
        # (invocation, "name.key") -> summed work count
        self.counts: Counter = Counter()
        # (name, parent name) -> calls
        self.by_parent: Counter = Counter()

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        frame = [len(self.spans) + len(self._stack), name,
                 time.perf_counter(), 0.0, parent[0] if parent else -1]
        self.by_parent[(name, parent[1] if parent else "")] += 1
        self._open[name] += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        sid, name, start, children, parent = frame
        self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        row = self.stats[(self.invocation, name)]
        row[0] += 1
        row[1] += duration
        row[2] += duration - children
        self.spans.append((sid, name, start, end, parent, self.invocation))

    def count(self, name: str, values: dict[str, int]) -> None:
        for key, n in values.items():
            self.counts[(self.invocation, f"{name}.{key}")] += n

    def write(self, path) -> None:
        """Write spans as tab-separated rows, in the order they ended."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tinvocation\n")
            for sid, name, start, end, parent, inv in self.spans:
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{parent}\t{inv}\n")


def _wrap(rec: Recorder, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if hook is not None:
            rec.count(name, hook(rec, args, result))
        return result
    return wrapper


def install(rec: Recorder):
    """Wrap the coalg layers; returns a function that undoes it."""
    modules = {name[len("coalg."):]: mod for name, mod in sys.modules.items()
               if name.startswith("coalg.")}
    undo = []

    def rebind(original, replacement):
        for mod in list(modules.values()) + [sys.modules["coalg"]]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    undo.append((mod, attr, original))

    for modname, fname, hook in FUNCTIONS:
        original = getattr(modules[modname], fname)
        rebind(original, _wrap(rec, f"{modname}.{fname}", original, hook))

    original_namer = modules["base"].fresh_namer

    @functools.wraps(original_namer)
    def fresh_namer(*args, **kwargs):
        return _wrap(rec, "base.fresh_name",
                     original_namer(*args, **kwargs), None)

    rebind(original_namer, fresh_namer)

    for modname, cls_name, method, name, hook in METHODS:
        cls = getattr(modules[modname], cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, _wrap(rec, name, original, hook))
        undo.append((cls, method, original))

    def restore():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
    return restore
