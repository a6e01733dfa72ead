"""In-memory span tracing of grothtab's layers, installed from outside the package.

`Tracer.install()` wraps the public entry points of the package modules.
It rebinds each wrapped function wherever a grothtab module imported it
and patches the wrapped `Poly` methods on the class, so nothing under
`src/` changes.  `arith` is deliberately not wrapped: its helpers run once
per term inside the n!-term sums, and a wrapper there would distort every
self time around it.

A span is (name, parent, start, end, busy, items, key).  `busy` is the time
covered by the span: end - start for a call, and for a generator the sum of
the intervals spent inside it, so the consumer's own work between two items
is not charged to the enumeration.  Self time is busy minus the busy time
of the direct children.
"""

import functools
import sys
from time import perf_counter

# (module, attribute, is a generator function); "Poly.x" names a method.
TARGETS = (
    ("tableaux", "enumerate_svt", True),
    ("tableaux", "enumerate_sst", True),
    ("polynomials", "determinant", False),
    ("polynomials", "Poly.divide_by_difference", False),
    ("polynomials", "Poly.substitute", False),
    ("grothendieck", "grothendieck_tableau_sum", False),
    ("grothendieck", "grothendieck_bialternant", False),
    ("grothendieck", "refined_bialternant", False),
    ("grothendieck", "principal_specialization_q", False),
    ("grothendieck", "count_svt_formula", False),
    ("hypergeom", "holman_series", False),
    ("hypergeom", "gauss_2f1_terminating", False),
    ("partitions", "count_sst_product", False),
    ("partitions", "count_sst_hook", False),
    ("identities", "run_all", False),
    ("identities", "run_check", False),
)

# Spans whose (shape, nvars) arguments are recorded, for distinct_ratio.
KEYED = {"tableaux.enumerate_svt", "tableaux.enumerate_sst"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "busy", "items", "key")

    def __init__(self, name, parent, key):
        self.name = name
        self.parent = parent
        self.start = self.end = None
        self.busy = 0.0
        self.items = 0
        self.key = key

    def dump(self):
        return [self.name, self.parent, self.start, self.end, self.busy, self.items, self.key]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def open(self, name, key=None) -> int:
        self.spans.append(Span(name, self.stack[-1] if self.stack else -1, key))
        return len(self.spans) - 1

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        index = self.open(name)
        span = self.spans[index]
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            span.start, span.end, span.busy = start, end, end - start

    def _consume(self, index, inner):
        span = self.spans[index]
        try:
            while True:
                self.stack.append(index)
                start = perf_counter()
                if span.start is None:
                    span.start = start
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    self.stack.pop()
                    span.busy += end - start
                    span.end = end
                span.items += 1
                yield item
        finally:
            inner.close()

    def _wrap(self, name, fn, generator):
        tracer = self
        if generator:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                key = None
                if name in KEYED:
                    key = ",".join(map(str, args[0])) + "|" + str(args[1])
                return tracer._consume(tracer.open(name, key), fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.call(name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Wrap every target; call once, after grothtab is imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "grothtab" or n.startswith("grothtab."))]
        for module_name, attr, generator in TARGETS:
            module = sys.modules[f"grothtab.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth), generator))
                continue
            original = getattr(module, attr)
            traced = self._wrap(name, original, generator)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def dump(self):
        return [span.dump() for span in self.spans]


def aggregate(span_lists):
    """Per-name totals over the span lists of one or more processes.

    Returns {name: {"calls", "items", "busy", "self", "keys", "fills"}};
    `fills` counts spans with a direct `tableaux.enumerate_svt` child.
    """
    stats = {}
    for spans in span_lists:
        child_busy = [0.0] * len(spans)
        has_enum = [False] * len(spans)
        for name, parent, _start, _end, busy, _items, _key in spans:
            if parent >= 0:
                child_busy[parent] += busy
                if name == "tableaux.enumerate_svt":
                    has_enum[parent] = True
        for i, (name, _parent, _start, _end, busy, items, key) in enumerate(spans):
            s = stats.setdefault(name, {"calls": 0, "items": 0, "busy": 0.0,
                                        "self": 0.0, "keys": set(), "fills": 0})
            s["calls"] += 1
            s["items"] += items
            s["busy"] += busy
            s["self"] += busy - child_busy[i]
            s["fills"] += has_enum[i]
            if key is not None:
                s["keys"].add(key)
    return stats
