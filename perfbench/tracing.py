"""Span recording around the liftspectra layers, installed from outside the package.

A :class:`Recorder` keeps spans in memory as ``(name, start, end, parent,
count)`` tuples, where ``parent`` is the index of the enclosing span (``-1``
for a root) and ``count`` a work count some wrappers attach (coefficient
pairs for group-algebra products).  :func:`install` wraps every public
function that ``liftspectra.__all__`` names, plus ``BaseMatrix.__matmul__``
and ``GroupAlgebraElement.__mul__``, and rebinds each wrapped name in every
loaded ``liftspectra`` module that holds it: ``from .irreps import
subgroup_sum`` copies the binding into ``spectral``, so patching only the
defining module would miss that call.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = [-1]

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0, self.stack[-1], 0))
        self.stack.append(idx)
        return idx

    def close(self, idx: int, count: int = 0) -> None:
        name, start, _, parent, _ = self.spans[idx]
        self.spans[idx] = (name, start, perf_counter(), parent, count)
        self.stack.pop()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle, separators=(",", ":"))


def _wrap(fn, name: str, rec: Recorder, count_of=None):
    spans = rec.spans
    stack = rec.stack

    def wrapper(*args, **kwargs):
        idx = len(spans)
        parent = stack[-1]
        stack.append(idx)
        spans.append(None)
        count = count_of(*args) if count_of is not None else 0
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[idx] = (name, start, perf_counter(), parent, count)
            stack.pop()

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _ga_terms(left, right) -> int:
    return len(left.coefficients) * len(right.coefficients)


def install(rec: Recorder, extra=()):
    """Wrap the package's public functions; return a callable that undoes it.

    ``extra`` holds further ``(span name, function)`` pairs to wrap (the CLI
    launcher adds ``cli.load_instance`` and the ``cmd_*`` handlers).
    """
    import liftspectra
    from liftspectra import voltage

    targets: dict[int, tuple] = {}
    for attr in liftspectra.__all__:
        fn = getattr(liftspectra, attr)
        if inspect.isfunction(fn):
            layer = fn.__module__.rsplit(".", 1)[-1]
            targets[id(fn)] = (fn, f"{layer}.{fn.__name__}")
    for name, fn in extra:
        targets[id(fn)] = (fn, name)
    wrappers = {key: _wrap(fn, name, rec) for key, (fn, name) in targets.items()}

    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "liftspectra" or mod_name.startswith("liftspectra.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and value is targets[id(value)][0]:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)

    methods = (
        (voltage.BaseMatrix, "__matmul__", "voltage.base_matmul", None),
        (voltage.GroupAlgebraElement, "__mul__", "voltage.ga_mul", _ga_terms),
    )
    for cls, attr, name, count_of in methods:
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(original, name, rec, count_of))

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall
