"""The benchmark's span recorder (`perfbench/spans.py`) wraps the library's
functions and methods by name, so deleting or renaming one of them breaks
the traced benchmark run.  Every name it lists must resolve, be replaced
while the recorder is installed, and be back after `restore`."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import coalg
import coalg.cli

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces() -> dict[str, dict]:
    """A copy of the namespace of `coalg` and of each of its modules."""
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "coalg" or name.startswith("coalg.")}


def test_every_span_name_is_wrapped_and_restored():
    spans = load_spans()
    module = {name: sys.modules[f"coalg.{name}"]
              for name, *_ in spans.FUNCTIONS + spans.METHODS}
    functions = {(m, f): getattr(module[m], f) for m, f, _ in spans.FUNCTIONS}
    functions["base", "fresh_namer"] = coalg.base.fresh_namer
    methods = {}
    for m, cls_name, method, _, _ in spans.METHODS:
        cls = getattr(module[m], cls_name)
        methods[cls, method] = vars(cls)[method]
    before = namespaces()

    restore = spans.install(spans.Recorder())
    try:
        for (m, f), original in functions.items():
            assert getattr(module[m], f).__wrapped__ is original, (m, f)
        # no module still reaches an original through a name of its own
        for space in namespaces().values():
            for value in space.values():
                assert all(value is not fn for fn in functions.values())
        for (cls, method), original in methods.items():
            assert vars(cls)[method].__wrapped__ is original, (cls, method)
    finally:
        restore()

    after = namespaces()
    assert after.keys() == before.keys()
    for name, space in before.items():
        assert after[name].keys() == space.keys(), name
        assert all(after[name][k] is v for k, v in space.items()), name
    for (cls, method), original in methods.items():
        assert vars(cls)[method] is original, (cls, method)
