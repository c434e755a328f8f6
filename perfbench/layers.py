"""Per-layer self-time accounting for the traced benchmark run.

The tracer wraps public functions of the program *where their callers look
them up*: a module-level function is replaced in every ``repro.*`` module
namespace that holds the same object, a method or property is replaced on
its class.  Each wrapped call opens a span on a per-thread stack; when it
closes, its duration is charged to its layer minus the time its child
spans covered, and the full duration is charged to the parent as child
time.  So every nanosecond counts once, however deeply wrapped calls nest
(``mixed_input_bits`` calls ``uniform_hd_input_bits``;
``characterize_module`` calls ``PowerSimulator.simulate``).

A function is replaced in the namespaces imported so far; a module
imported later copies the wrapper from the namespace it imports from.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names, in report order.  Each is one row of the per-layer table.
LAYERS = (
    "stimulus", "simulate", "classify", "fit", "characterize",
    "modules.build", "signals", "regression", "stats",
    "cache.load", "cache.store", "service",
)

After = Callable[["LayerTracer", Any, tuple, dict, bool], None]


class LayerTracer:
    """Self time and counters per layer, safe across threads.

    Attributes:
        self_s: Seconds per layer not covered by a nested wrapped call.
        counts: Named work counters (``stimulus.rows``, ``simulate.cycles``...).
        durations: Full duration of every call, for the layers named in
            ``keep_durations`` (a latency sample, not a self time).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_durations: Tuple[str, ...] = ()):
        self._clock = clock
        self._keep = frozenset(keep_durations)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> list:
        """Open a span; returns the frame :meth:`exit` needs."""
        frame = [layer, self._clock(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close ``frame``; returns its full duration."""
        stack = self._stack()
        duration = self._clock() - frame[1]
        popped = stack.pop()
        if popped is not frame:
            raise RuntimeError("spans closed out of order")
        with self._lock:
            self.self_s[frame[0]] += duration - frame[2]
            if frame[0] in self._keep:
                self.durations[frame[0]].append(duration)
        if stack:
            stack[-1][2] += duration
        return duration

    def nested_in(self, layer: str) -> bool:
        """Whether an enclosing open span (below the top) is ``layer``."""
        return any(frame[0] == layer for frame in self._stack()[:-1])

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {"self_s": dict(self.self_s), "counts": dict(self.counts)}

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, layer: str,
             after: Optional[After] = None) -> Callable:
        """``fn`` timed as ``layer``; ``after`` records counts on return."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(layer)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, result, args, kwargs,
                          not self.nested_in(layer))
                return result
            finally:
                self.exit(frame)

        return wrapper

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_function(self, module_name: str, name: str, layer: str,
                       after: Optional[After] = None) -> int:
        """Wrap ``module_name.name`` in every ``repro`` namespace holding it.

        Returns how many namespaces were patched (at least one).
        """
        undo = replace_everywhere(
            module_name, name, lambda fn: self.wrap(fn, layer, after))
        self._undo += undo
        return len(undo)

    def patch_method(self, cls: type, name: str, layer: str,
                     after: Optional[After] = None) -> None:
        """Wrap a method, classmethod or property getter of ``cls``."""
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            value: Any = classmethod(self.wrap(raw.__func__, layer, after))
        elif isinstance(raw, property):
            value = property(self.wrap(raw.fget, layer, after),
                             raw.fset, raw.fdel, raw.__doc__)
        else:
            value = self.wrap(raw, layer, after)
        self._set(cls, name, value)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched first)."""
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def layer_seconds(self) -> float:
        return sum(self.self_s.values())


def replace_everywhere(module_name: str, name: str,
                       make: Callable[[Callable], Callable]
                       ) -> List[Tuple[Any, str, Any]]:
    """Replace ``module_name.name`` by ``make(it)`` in every ``repro``
    namespace holding it.

    Returns the undo list: (namespace, name, original) per replacement.
    """
    original = getattr(importlib.import_module(module_name), name)
    replacement = make(original)
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        if getattr(module, "__dict__", {}).get(name) is original:
            undo.append((module, name, original))
            setattr(module, name, replacement)
    if not undo:
        raise LookupError(f"{module_name}.{name} not found")
    return undo


# ----------------------------------------------------------------------
# The program's layers
# ----------------------------------------------------------------------
def _rows(tracer, result, args, kwargs, outermost) -> None:
    # mixed_input_bits returns its children's rows: count them once.
    if outermost:
        tracer.count("stimulus.rows", len(result))


def _simulated(tracer, result, args, kwargs, outermost) -> None:
    stats = args[0].last_stats
    tracer.count("simulate.cycles", stats.n_cycles)
    tracer.count("simulate.toggles", stats.total_toggles)
    tracer.count(f"simulate.engine.{stats.engine}")


def _characterized(tracer, result, args, kwargs, outermost) -> None:
    tracer.count("characterize.calls")
    tracer.count("characterize.patterns", result.n_patterns)
    tracer.count("characterize.converged", bool(result.converged))


def _loaded(tracer, result, args, kwargs, outermost) -> None:
    tracer.count("cache.load.calls")
    tracer.count("cache.load.hits", result is not None)


def install_program_layers(tracer: LayerTracer) -> None:
    """Wrap the program's public layer boundaries (``repro`` imported)."""
    from repro.circuit.power import PowerSimulator
    from repro.core.accumulator import ClassAccumulator
    from repro.core.enhanced import EnhancedHdModel
    from repro.core.hd_model import HdPowerModel
    from repro.modules.library import DatapathModule
    from repro.runtime.cache import ModelCache
    from repro.stats.dbt import DbtModel

    for name in ("random_input_bits", "uniform_hd_input_bits",
                 "corner_input_bits", "mixed_input_bits"):
        tracer.patch_function("repro.core.characterize", name, "stimulus",
                              _rows)
    tracer.patch_method(PowerSimulator, "simulate", "simulate", _simulated)
    tracer.patch_function("repro.core.events", "classify_transitions",
                          "classify")
    tracer.patch_method(ClassAccumulator, "update", "fit")
    tracer.patch_method(HdPowerModel, "from_accumulator", "fit")
    tracer.patch_method(EnhancedHdModel, "from_accumulator", "fit")
    tracer.patch_function("repro.core.characterize", "characterize_module",
                          "characterize", _characterized)
    tracer.patch_function("repro.modules.library", "make_module",
                          "modules.build")
    tracer.patch_method(DatapathModule, "compiled", "modules.build")
    tracer.patch_function("repro.modules.multipliers", "csa_multiplier",
                          "modules.build")
    for name in ("make_operand_streams", "make_stream"):
        tracer.patch_function("repro.signals.registry", name, "signals")
    tracer.patch_function("repro.signals.streams", "module_stimulus",
                          "signals")
    for name in ("characterize_prototype_set", "fit_width_regression"):
        tracer.patch_function("repro.core.regression", name, "regression")
    tracer.patch_function("repro.stats.bitstats",
                          "empirical_hd_distribution", "stats")
    tracer.patch_function("repro.stats.wordstats", "word_stats", "stats")
    tracer.patch_method(DbtModel, "from_words", "stats")
    for name in ("hd_distribution_from_dbt", "module_hd_distribution"):
        tracer.patch_function("repro.core.distribution", name, "stats")
    tracer.patch_method(ModelCache, "load_characterization", "cache.load",
                        _loaded)
    tracer.patch_method(ModelCache, "store_characterization", "cache.store")
    tracer.patch_function("repro.runtime.service", "characterize_jobs",
                          "service")


def layer_metrics(snapshot: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metric values from a :meth:`LayerTracer.snapshot`."""
    self_s = snapshot["self_s"]
    counts = snapshot["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {f"{layer}.s": self_s.get(layer, 0.0) for layer in LAYERS}
    out["stimulus.rows"] = counts.get("stimulus.rows", 0.0)
    out["stimulus.us_per_row"] = 1e6 * ratio(out["stimulus.s"],
                                             out["stimulus.rows"])
    for name in ("cycles", "toggles"):
        out[f"simulate.{name}"] = counts.get(f"simulate.{name}", 0.0)
    out["simulate.ns_per_toggle"] = 1e9 * ratio(out["simulate.s"],
                                                out["simulate.toggles"])
    for engine in ("compiled", "packed", "bool"):
        out[f"simulate.engine.{engine}"] = counts.get(
            f"simulate.engine.{engine}", 0.0)
    out["characterize.calls"] = counts.get("characterize.calls", 0.0)
    out["characterize.patterns"] = counts.get("characterize.patterns", 0.0)
    out["characterize.converged_ratio"] = ratio(
        counts.get("characterize.converged", 0.0), out["characterize.calls"])
    out["cache.load.calls"] = counts.get("cache.load.calls", 0.0)
    out["cache.hit_ratio"] = ratio(counts.get("cache.load.hits", 0.0),
                                   out["cache.load.calls"])
    return out


def subtract(after: Dict[str, Dict[str, float]],
             before: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Snapshot difference ``after - before`` (a phase's own share)."""
    return {
        part: {
            key: value - before[part].get(key, 0.0)
            for key, value in after[part].items()
        }
        for part in ("self_s", "counts")
    }
