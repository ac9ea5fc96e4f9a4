"""Command-line front end.

Commands read one spec file, print a machine-readable first line followed by
detail lines, and use exit codes 0 (success / true verdict), 1 (false
verdict), 2 (input error), 3 (search-space guard).  DFA and multigraph
inputs are converted to coalgebras where a command needs one.

While a command runs, the cyclic garbage collector is paused (`_run`), and
switched back on afterwards, on every way out, only if it was on before.
The pause is safe because the constructions make no reference cycles:
their levels, values and maps are immutable and acyclic, and reference
counting frees them, so a collection would walk them all and free nothing
(a third or more of `reach_levels` and `unravel` on a 200,000-state
chain).  tests/test_gc_pause.py checks that no command leaves a cycle
behind.  The one exception is argparse's parser, which leaves 57-72 cyclic
objects per call; the collector frees them once it is back on, or they go
at process exit.  Library calls made outside `main` run with the collector
as the caller has it.
"""

from __future__ import annotations

import argparse
import gc
import sys
from itertools import chain, islice

from .automata import (PartialDFA, defined_inputs, dfa_to_coalgebra,
                       rooted_paths)
from .base import (CoalgebraError, SearchSpaceTooLarge, SpecFormatError,
                   TotalMap)
from .coalgebra import (Multigraph, PointedCoalgebra, canonical_graph,
                        multigraph_to_bag)
from .dot import to_dot
from .oracles import (bfs_reachable, reachable_by_definition,
                      tree_refute_by_definition)
from .reachability import is_reachable, reach_levels, reachable_part
from .specfile import emit_spec, parse_spec
from .unravelling import (UnravelResult, complete_counts, copy_counts,
                          tree_check, unravel)

# the characters a listing gathers before it writes them
WRITE_CHARS = 1 << 16


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecFormatError(
                f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
            ) from None
    return parse_spec(text)


def _as_coalgebra(obj) -> PointedCoalgebra:
    if isinstance(obj, PointedCoalgebra):
        return obj
    if isinstance(obj, PartialDFA):
        return dfa_to_coalgebra(obj)
    return multigraph_to_bag(obj)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _write_joined(head: str, sep: str, pieces, tail: str) -> None:
    """Write head, the pieces joined by sep, and tail, about WRITE_CHARS
    characters a write: an unbuffered or line-buffered stdout would make
    each line its own system call, and one write of the whole would hold a
    second copy of every name.  The pieces are joined in batches of up to
    4,096, each sized from the length of the one before to hold about
    WRITE_CHARS characters and at most twice its count: a chain's names
    grow, and its last ones hold most of its listing's characters."""
    pieces = iter(pieces)
    parts, size, count, glue = [head], 0, 64, ""
    while chunk := list(islice(pieces, count)):
        text = sep.join(chunk)
        parts += (glue, text)
        glue, size = sep, size + len(text)
        if size >= WRITE_CHARS:
            sys.stdout.write("".join(parts))
            parts, size = [], 0
        count = max(1, min(4096, 2 * count,
                           count * WRITE_CHARS // (len(text) + 1)))
    parts.append(tail)
    sys.stdout.write("".join(parts))


def _write_listing(header: str, projection: TotalMap) -> None:
    """The header line and one `  x -> h(x)` line per tree state."""
    lines = map(" -> ".join, projection.items())
    _write_joined(header, "\n  ", chain(("",), lines), "\n")


def _write_tree(args, result: UnravelResult) -> None:
    """The --emit spec file and the --dot rendering of the result's tree,
    where asked for: only these read the tree (and so build a deferred
    one's values)."""
    if args.emit:
        _write(args.emit, emit_spec(result.tree))
    if args.dot:
        _write(args.dot, to_dot(result.tree))


def _max_len(args, size: int) -> int:
    """--maxlen, 2 * size when not given; negative caps are input errors."""
    if args.maxlen is None:
        return 2 * size
    if args.maxlen < 0:
        raise CoalgebraError("--maxlen must be non-negative")
    return args.maxlen


def cmd_check(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, PointedCoalgebra):
        open_note = f", {len(obj.frontier)} open" if len(obj.frontier) else ""
        print(f"valid coalgebra: {len(obj.carrier)} states{open_note}")
    elif isinstance(obj, PartialDFA):
        print(f"valid dfa: {len(obj.states)} states, "
              f"{len(obj.alphabet)} letters, {len(obj.delta)} transitions")
    else:
        print(f"valid multigraph: {len(obj.vertices)} vertices, "
              f"{len(obj.edges)} edges")
    return 0


def cmd_reachable(args) -> int:
    c = _as_coalgebra(_load(args.file))
    seq = reach_levels(c)
    part = reachable_part(c)
    verdict = is_reachable(c)
    print("reachable" if verdict else "not reachable")
    _write_joined("levels: {", "}, {", map(",".join, seq.levels), "}\n")
    _write_joined("reachable part = {", ", ", part.sub, "}\n")
    if args.emit:
        _write(args.emit, emit_spec(part.coalgebra))
    if args.oracle:
        bfs = bfs_reachable(canonical_graph(c))
        agree = part.sub.as_set() == bfs.as_set()
        agree = agree and reachable_by_definition(c) == verdict
        print("oracle: agree" if agree else "oracle: MISMATCH")
        if not agree:
            return 1
    return 0 if verdict else 1


def cmd_is_tree(args) -> int:
    c = _as_coalgebra(_load(args.file))
    report = tree_check(c)
    if report.ok:
        print("true")
    else:
        print(f"false: {report.reason} ({report.detail})")
    if args.oracle:
        found = tree_refute_by_definition(c, min(len(c.carrier) + 2, 6))
        if found is None:
            print("oracle: no refuter found (not a proof)")
        else:
            print(f"oracle: refuted by a {len(found.source.carrier)}-state "
                  f"coalgebra")
        if (found is None) != report.ok:
            print("oracle: MISMATCH" if report.ok
                  else "oracle: no refuter within bound")
    return 0 if report.ok else 1


def cmd_unravel(args) -> int:
    c = _as_coalgebra(_load(args.file))
    if args.depth is not None and args.depth <= 0:
        raise CoalgebraError("--depth must be positive")
    # the root-path counts of a complete unravelling are its copies: its
    # tree is built only to be written
    counts = complete_counts(c) if args.depth is None else None
    result, complete = None, counts is not None
    if complete:
        counts = {y: counts.get(y, 0) for y in c.carrier}
        if args.emit or args.dot:
            result = unravel(c, len(c.carrier))
    else:
        # without --depth, the counts found a cycle or an imprecise value:
        # the depth `tree_unravelling` would choose, without walking again
        result = unravel(c, args.depth or 3 * len(c.carrier))
        complete, counts = result.complete, copy_counts(result.projection)
    print(f"complete: {'true' if complete else 'false'}")
    print(f"tree states: {sum(counts.values())}")
    print("copies: " + ", ".join(f"{y}={n}" for y, n in counts.items()))
    if not complete:
        _write_joined("frontier: {", ", ", result.frontier, "}\n")
    if complete and all(n == 1 for n in counts.values()):
        print("note: input is already a tree")
    _write_tree(args, result)
    return 0


def cmd_dfa_inputs(args) -> int:
    obj = _load(args.file)
    if not isinstance(obj, PartialDFA):
        raise CoalgebraError("dfa-inputs needs a 'kind: dfa' spec file")
    maxlen = _max_len(args, len(obj.states))
    result = defined_inputs(obj, maxlen)
    print(f"complete: {'true' if result.complete else 'false'}"
          + ("" if result.complete else f" (maxlen {maxlen})"))
    _write_joined("P = {", ", ", result.projection.domain, "}\n")
    _write_listing("delta*:", result.projection)
    _write_tree(args, result)
    return 0


def cmd_paths(args) -> int:
    obj = _load(args.file)
    if not isinstance(obj, Multigraph):
        raise CoalgebraError("paths needs a 'kind: multigraph' spec file")
    maxlen = _max_len(args, len(obj.vertices))
    result = rooted_paths(obj, maxlen)
    print(f"complete: {'true' if result.complete else 'false'}"
          + ("" if result.complete else f" (maxlen {maxlen})"))
    print(f"{len(result.projection.domain)} rooted paths")
    counts = copy_counts(result.projection)
    print("targets: " + ", ".join(f"{v}={n}" for v, n in counts.items()))
    _write_listing("t:", result.projection)
    _write_tree(args, result)
    return 0


def cmd_dot(args) -> int:
    obj = _load(args.file)
    text = to_dot(obj)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the command line.  When `command` names a command, only
    its subparser is registered, and the usage line names every command as
    the full parser's does; for any other first argument (none, -h or an
    unknown command) every subparser is."""
    parser = argparse.ArgumentParser(
        prog="coalg",
        description="reachability and tree unravelling of pointed coalgebras")
    sub = parser.add_subparsers(dest="command", required=True)
    names = []

    def add(name, fn, **flags):
        names.append(name)
        if command not in (None, name):
            return
        p = sub.add_parser(name)
        p.add_argument("file", help="spec file")
        if flags.get("depth"):
            p.add_argument("--depth", type=int, default=None,
                           help="truncate the unravelling at this depth")
        if flags.get("maxlen"):
            p.add_argument("--maxlen", type=int, default=None,
                           help="word/path length cap for cyclic inputs")
        if flags.get("emit"):
            p.add_argument("--emit", metavar="PATH",
                           help="write the resulting object as a spec file")
        if flags.get("dot"):
            p.add_argument("--dot", metavar="PATH",
                           help="write a DOT rendering of the result")
        if flags.get("oracle"):
            p.add_argument("--oracle", action="store_true",
                           help="cross-check with the brute-force oracle")
        if flags.get("out"):
            p.add_argument("--out", metavar="PATH",
                           help="output path (default: stdout)")
        p.set_defaults(fn=fn)

    add("check", cmd_check)
    add("reachable", cmd_reachable, emit=True, oracle=True)
    add("is-tree", cmd_is_tree, oracle=True)
    add("unravel", cmd_unravel, depth=True, emit=True, dot=True)
    add("dfa-inputs", cmd_dfa_inputs, maxlen=True, emit=True, dot=True)
    add("paths", cmd_paths, maxlen=True, emit=True, dot=True)
    add("dot", cmd_dot, out=True)
    if command is not None:
        if command not in names:
            return _build_parser()
        sub.metavar = "{" + ",".join(names) + "}"
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    return _run(_build_parser(argv[0] if argv else None).parse_args(argv))


def _run(args) -> int:
    """Run the parsed command, with its errors turned into exit codes 2 and
    3, while the cyclic garbage collector is paused: safe because the
    constructions make no reference cycles (see the module docstring)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except SearchSpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CoalgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
