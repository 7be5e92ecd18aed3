"""Outside-in layer tracing of the ``qeuler`` package, for the traced run.

The library stays untouched: every public function is wrapped in every
``qeuler`` module namespace that holds it (``lfunc`` binds names such as
``euler_number_q`` at import, so wrapping only the defining module would
miss those calls), and ``PadicApprox.__init__`` and its arithmetic dunders
are wrapped on the class.  Private helpers are not wrapped, so their time
is the self time of the public function that called them.

A span is (function, start, end, parent span); spans stay in memory and
are folded into per-function statistics when the operation has ended.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# `__radd__ = __add__` and `__rmul__ = __mul__` are separate class attributes
# holding the same function, so each is wrapped on its own.
ARITH_DUNDERS = (
    "__add__",
    "__radd__",
    "__neg__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
)


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    """Collects spans of the wrapped functions of one worker process."""

    def __init__(self):
        self.names = []  # function key by index, e.g. "lfunc.H_pq"
        self.seen = []  # distinct argument keys by index, or None
        self.spans = []  # (index, start, end, parent span, raised)
        self._stack = []

    def wrap(self, fn, name: str, distinct: bool):
        index = len(self.names)
        self.names.append(name)
        seen = set() if distinct else None
        self.seen.append(seen)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(_arg_key(args, kwargs))
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent, raised)

        return traced

    def install(self) -> None:
        """Wrap the public surface of every imported ``qeuler`` module."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "qeuler" or name.startswith("qeuler.")]
        wrapped = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("qeuler."):
                    continue
                if obj not in wrapped:
                    layer = obj.__module__.split(".")[1]
                    wrapped[obj] = self.wrap(obj, f"{layer}.{obj.__name__}", distinct=True)
                setattr(module, attr, wrapped[obj])
        padic = sys.modules["qeuler.padic"].PadicApprox
        padic.__init__ = self.wrap(padic.__init__, "padic.PadicApprox.__init__", distinct=False)
        for dunder in ARITH_DUNDERS:
            setattr(padic, dunder, self.wrap(getattr(padic, dunder), "padic.arith", distinct=False))

    def summary(self) -> dict:
        """Per function key: [calls, distinct argument sets, self seconds, raised].

        Self time is a span's duration minus the durations of its direct
        children; distinct is null where arguments are not recorded.
        """
        child = [0.0] * len(self.spans)
        for index, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for me, (index, start, end, _, raised) in enumerate(self.spans):
            name = self.names[index]
            entry = stats.setdefault(name, [0, None, 0.0, 0])
            entry[0] += 1
            entry[2] += (end - start) - child[me]
            entry[3] += raised
        for index, name in enumerate(self.names):
            if name in stats and self.seen[index] is not None:
                stats[name][1] = len(self.seen[index])
        return stats
