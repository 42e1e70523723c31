"""Span recorder that wraps the package's layer entry points from outside.

The package's modules import each other's functions by name, so a call
goes through the name in the calling module's globals.  Replacing those
module-level names with timing wrappers records one span per call
without changing the package.  A name that no longer exists is recorded
as absent; its layer then reads zero.
"""

import importlib
import inspect
from time import perf_counter

# (span name, module, attribute): every name a caller looks up at call time
TARGETS = (
    ("schema.parse", "singular_pi1.cli", "parse_scheme_config"),
    ("schema.emit", "singular_pi1.cli", "pi1_result_to_json"),
    ("scheme.validate", "singular_pi1.scheme", "validate"),
    ("scheme.order", "singular_pi1.pi1", "devissage_order"),
    ("scheme.order", "singular_pi1.pi1", "check_order"),
    ("pi1.devissage", "singular_pi1.cli", "pi1_devissage"),
    ("pi1.devissage", "singular_pi1.pi1", "pi1_devissage"),
    ("pi1.connected_singular", "singular_pi1.cli", "pi1_connected_singular"),
    ("pi1.connected_singular", "singular_pi1.pi1", "pi1_connected_singular"),
    ("pi1.closed_form", "singular_pi1.cli", "pi1_closed_form"),
    ("vk.assemble", "singular_pi1.pi1", "vk_assemble"),
    ("presentation.tietze", "singular_pi1.pi1", "tietze_simplify"),
    ("homcount.count", "singular_pi1.cli", "count_homs"),
    ("homcount.count", "singular_pi1.oracle", "count_homs"),
    ("homcount.count", "singular_pi1.homcount", "count_homs"),
    ("homcount.iter", "singular_pi1.oracle", "iter_homs"),
    ("homcount.iter", "singular_pi1.homcount", "iter_homs"),
    ("homcount.transitive", "singular_pi1.oracle", "count_transitive_homs"),
    ("oracle.enumerate", "singular_pi1.oracle", "enumerate_descent_data"),
    ("oracle.connected", "singular_pi1.oracle", "connected_count"),
    ("perms.table", "singular_pi1.oracle", "table"),
    ("perms.table", "singular_pi1.homcount", "table"),
)

# the routes the CLI calls: their results are what reaches the output
TOP_ROUTES = {("singular_pi1.cli", "pi1_devissage"),
              ("singular_pi1.cli", "pi1_connected_singular"),
              ("singular_pi1.cli", "pi1_closed_form")}


class Span:
    __slots__ = ("name", "parent", "start", "end", "busy")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0


class Tracer:
    """Spans and counters of one CLI operation, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.absent = []
        self.counters = {"oracle.rigid_count": 0,
                         "presentation.raw_generators": 0,
                         "presentation.tietze_kept": 0}
        self._tietze_outputs = []
        self._installed = []

    def install(self, targets=TARGETS):
        for name, module, attr in targets:
            try:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                continue
            self._installed.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, (module, attr)))

    def uninstall(self):
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def _open(self, name):
        span = Span(name, self.stack[-1] if self.stack else None,
                    perf_counter())
        self.spans.append(span)
        return span

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = self._open(name)
        self.stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span.end = perf_counter()
            span.busy = span.end - span.start

    def _wrap(self, name, fn, where):
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                return self._iterate(name, fn(*args, **kwargs))
            return gen_wrapper

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            self._observe(name, where, result)
            return result
        return wrapper

    def _iterate(self, name, gen):
        """A generator's span is busy only while it computes an item."""
        span = self._open(name)
        try:
            while True:
                self.stack.append(span)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    span.busy += perf_counter() - t0
                    self.stack.pop()
                    span.end = perf_counter()
                yield item
        finally:
            gen.close()

    def _observe(self, name, where, result):
        if name == "presentation.tietze":
            self._tietze_outputs.append(result)
        elif name == "oracle.enumerate" and isinstance(result, int):
            self.counters["oracle.rigid_count"] += result
        elif where in TOP_ROUTES:
            raw = getattr(result, "raw_presentation", None)
            self.counters["presentation.raw_generators"] += \
                len(getattr(raw, "generators", ()))
            final = getattr(result, "presentation", None)
            if any(final is p for p in self._tietze_outputs):
                self.counters["presentation.tietze_kept"] += 1

    def summary(self):
        """Per span name: calls, time inside it counted once, self time."""
        child_busy = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                child_busy[key] = child_busy.get(key, 0.0) + span.busy
        layers = {}
        for span in self.spans:
            row = layers.setdefault(span.name,
                                    {"calls": 0, "time": 0.0, "self": 0.0})
            row["calls"] += 1
            row["self"] += span.busy - child_busy.get(id(span), 0.0)
            if not self._nested_in_same_name(span):
                row["time"] += span.busy
        return {"layers": layers, "counters": dict(self.counters),
                "absent": list(self.absent)}

    @staticmethod
    def _nested_in_same_name(span):
        up = span.parent
        while up is not None:
            if up.name == span.name:
                return True
            up = up.parent
        return False

    def records(self):
        """Every span as ``[name, parent index, start, end, busy]``."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [[s.name, index.get(id(s.parent)), s.start, s.end, s.busy]
                for s in self.spans]
