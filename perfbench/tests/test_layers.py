"""Self time from nested spans, and wrapping where callers look names up."""

import sys
import threading
import types

import pytest

import layers


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_count_each_second_once():
    clock = Clock()
    tracer = layers.LayerTracer(clock=clock)
    outer = tracer.enter("characterize")          # t=0
    clock.now = 1.0
    stim = tracer.enter("stimulus")               # mixed_input_bits
    clock.now = 2.0
    inner = tracer.enter("stimulus")              # uniform_hd_input_bits
    clock.now = 5.0
    assert tracer.exit(inner) == 3.0
    clock.now = 6.0
    tracer.exit(stim)
    sim = tracer.enter("simulate")
    clock.now = 9.0
    tracer.exit(sim)
    clock.now = 10.0
    assert tracer.exit(outer) == 10.0
    assert tracer.self_s == {"characterize": 2.0, "stimulus": 5.0,
                             "simulate": 3.0}
    assert tracer.layer_seconds() == 10.0


def test_spans_on_other_threads_do_not_nest():
    tracer = layers.LayerTracer()
    outer = tracer.enter("service")
    seen = []

    def worker():
        frame = tracer.enter("simulate")
        seen.append(tracer.nested_in("service"))
        tracer.exit(frame)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.exit(outer)
    assert seen == [False]
    assert set(tracer.self_s) == {"service", "simulate"}


def test_spans_must_close_in_order():
    tracer = layers.LayerTracer()
    first = tracer.enter("a")
    tracer.enter("b")
    with pytest.raises(RuntimeError):
        tracer.exit(first)


@pytest.fixture
def fake_program():
    """Two modules under ``repro.`` sharing one function, plus a class."""
    source = types.ModuleType("repro._perfbench_source")
    caller = types.ModuleType("repro._perfbench_caller")

    def uniform(n):
        return list(range(n))

    def mixed(n):
        # Looks the name up in its own module at call time, as the
        # program's generators do.
        return source.uniform(n) + source.uniform(n)

    class Simulator:
        def __init__(self):
            self.last = None

        def simulate(self, rows):
            self.last = len(rows)
            return rows

        @classmethod
        def build(cls):
            return cls()

    source.uniform, source.mixed, source.Simulator = uniform, mixed, Simulator
    caller.uniform = uniform
    sys.modules[source.__name__] = source
    sys.modules[caller.__name__] = caller
    yield source, caller
    del sys.modules[source.__name__], sys.modules[caller.__name__]


def test_patch_function_replaces_every_namespace_and_uninstalls(fake_program):
    source, caller = fake_program
    original = source.uniform
    tracer = layers.LayerTracer(keep_durations=("stimulus",))
    rows = []

    def count_rows(tracer, result, args, kwargs, outermost):
        if outermost:
            rows.append(len(result))

    assert tracer.patch_function(source.__name__, "uniform", "stimulus",
                                 count_rows) == 2
    tracer.patch_function(source.__name__, "mixed", "stimulus", count_rows)
    assert caller.uniform is source.uniform is not original
    assert source.mixed(3) == [0, 1, 2, 0, 1, 2]
    assert rows == [6]                      # the nested calls count once
    assert len(tracer.durations["stimulus"]) == 3
    tracer.uninstall()
    assert caller.uniform is source.uniform is original


def test_patch_method_covers_methods_and_classmethods(fake_program):
    source, _ = fake_program
    cls = source.Simulator
    tracer = layers.LayerTracer()
    tracer.patch_method(cls, "simulate", "simulate")
    tracer.patch_method(cls, "build", "modules.build")
    sim = cls.build()
    assert sim.simulate([1, 2]) == [1, 2] and sim.last == 2
    assert set(tracer.self_s) == {"simulate", "modules.build"}
    tracer.uninstall()
    assert "wrapper" not in repr(cls.__dict__["simulate"])


def test_patch_function_reports_missing_names(fake_program):
    source, _ = fake_program
    with pytest.raises(AttributeError):
        layers.LayerTracer().patch_function(source.__name__, "nope", "x")


def test_layer_metrics_ratios_and_phase_difference():
    before = {"self_s": {"stimulus": 1.0}, "counts": {}}
    after = {
        "self_s": {"stimulus": 3.0, "simulate": 4.0},
        "counts": {"stimulus.rows": 1000.0, "simulate.toggles": 2e6,
                   "characterize.calls": 4.0, "characterize.converged": 3.0,
                   "cache.load.calls": 10.0, "cache.load.hits": 5.0,
                   "simulate.engine.packed": 2.0},
    }
    metrics = layers.layer_metrics(after)
    assert metrics["stimulus.us_per_row"] == pytest.approx(3000.0)
    assert metrics["simulate.ns_per_toggle"] == pytest.approx(2000.0)
    assert metrics["characterize.converged_ratio"] == 0.75
    assert metrics["cache.hit_ratio"] == 0.5
    assert metrics["simulate.engine.packed"] == 2.0
    assert metrics["fit.s"] == 0.0
    assert layers.subtract(after, before)["self_s"] == {
        "stimulus": 2.0, "simulate": 4.0}
