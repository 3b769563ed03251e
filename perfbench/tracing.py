"""Per-layer spans for crrelay, recorded from the benchmark's side.

The layers are the package modules.  ``Tracer.install`` rebinds every
function name that one crrelay module imports from another (for example
``crrelay.harness.estimate``, ``crrelay.allocation.upper_bound_d1`` or
``crrelay.analytic.integrate_exp_over_x``) to a wrapper that opens a span for
the callee's layer; ``uninstall`` restores the originals.  No file of the
package changes.  Calls inside one module stay inside that module's span.

A layer's self time is its spans' duration minus the time its child spans
cover.  Spans are kept in memory and written out at the end; a span with no
child spans is folded into one record per (parent, name), so the 30k bound
evaluations of one ``allocate`` cost one record, not 30k.
"""

import inspect
import sys
import types
from time import perf_counter

LAYERS = ("cli", "harness", "montecarlo", "analytic", "quadrature",
          "allocation", "system")

# Bindings the count metrics read.  One that a refactor removes is reported
# as a missing span; it never breaks a run.
COUNTED = (
    ("cli", "estimate"), ("harness", "estimate"),
    ("cli", "allocate"), ("harness", "allocate"),
    ("allocation", "upper_bound_d1"),
    ("analytic", "integrate_exp_over_x"),
    ("cli", "derive"), ("harness", "derive"), ("montecarlo", "derive"),
    ("allocation", "derive"),
)


def _layer_of(fn) -> str | None:
    pkg, _, layer = fn.__module__.rpartition(".")
    return layer if pkg == "crrelay" and layer in LAYERS else None


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self):
        self._saved = []       # (module, name, original function)
        self.wrapped = set()   # (caller layer, name) pairs currently wrapped
        self._epoch = perf_counter()
        self._stack = []
        self._unit = None
        self._positions = {}
        self._next_id = 0
        self.spans = []
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.binding_calls = {}
        self.trials = 0
        self.unique_trials = 0

    # -- installation -----------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for caller in LAYERS:
            module = sys.modules[f"crrelay.{caller}"]
            for name, fn in list(vars(module).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                layer = _layer_of(fn)
                if layer is None or layer == caller:
                    continue
                setattr(module, name, self._wrap(caller, layer, name, fn))
                self._saved.append((module, name, fn))
                self.wrapped.add((caller, name))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        self.wrapped.clear()

    def missing(self) -> list:
        """Counted bindings not found in the package (empty while installed
        on the code this benchmark was written against)."""
        return [f"crrelay.{c}.{n}" for c, n in COUNTED if (c, n) not in self.wrapped]

    def _wrap(self, caller, layer, name, fn):
        key = (caller, name)
        trials_sig = inspect.signature(fn) if name == "estimate" else None

        def wrapper(*args, **kwargs):
            self.binding_calls[key] = self.binding_calls.get(key, 0) + 1
            if trials_sig is not None:
                self._count_trials(trials_sig, args, kwargs)
            return self._span(layer, name, fn, args, kwargs)

        return wrapper

    # -- counts -----------------------------------------------------------

    def _count_trials(self, sig, args, kwargs):
        """Trials requested, and the stream positions they cover: estimate
        always reads trial indices [0, trials) of its seed's stream."""
        bound = sig.bind(*args, **kwargs).arguments
        trials, seed = bound["trials"], bound["seed"]
        self.trials += trials
        self._positions[seed] = max(self._positions.get(seed, 0), trials)

    def begin_unit(self, unit_id):
        """Start one benchmark unit; distinct trials are counted per unit."""
        self._unit = unit_id
        self._positions = {}

    def end_unit(self):
        self.unique_trials += sum(self._positions.values())
        self._positions = {}

    def calls_of(self, name: str, caller: str | None = None) -> int:
        return sum(n for (c, f), n in self.binding_calls.items()
                   if f == name and (caller is None or c == caller))

    # -- spans ------------------------------------------------------------

    def call(self, layer, name, fn, *args):
        """Run fn under a span of its own, for the benchmark's entry call."""
        return self._span(layer, name, fn, args, {})

    def _span(self, layer, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        # id, parent id, layer, name, start, child seconds, folded leaves
        frame = [self._next_id, parent[0] if parent else None, layer, name,
                 perf_counter(), 0.0, None]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - frame[4]
            self.calls[layer] += 1
            self.self_s[layer] += dur - frame[5]
            if parent is not None:
                parent[5] += dur
            self._record(frame, parent, end, dur)

    def _record(self, frame, parent, end, dur):
        span_id, parent_id, layer, name, start, child_s, leaves = frame
        label = f"{layer}.{name}"
        if parent is not None and child_s == 0.0 and leaves is None:
            if parent[6] is None:
                parent[6] = {}
            agg = parent[6].setdefault(label, [0, 0.0])
            agg[0] += 1
            agg[1] += dur
            return
        self.spans.append({
            "id": span_id, "parent": parent_id, "unit": self._unit,
            "name": label, "start_s": start - self._epoch,
            "end_s": end - self._epoch, "self_s": dur - child_s,
        })
        for leaf, (n, total) in (leaves or {}).items():
            self.spans.append({"parent": span_id, "unit": self._unit,
                               "name": leaf, "n": n, "total_s": total})
