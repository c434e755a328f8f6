"""The public Session facade: parity with the layered API, name shims.

Every facade call must reproduce the layered calls exactly (same seeds,
same config plumbing) — parity is pinned at 1e-9 or exact array
equality.  The renamed-parameter shims must keep old spellings working
while warning exactly once per process per call site.
"""

import warnings

import numpy as np
import pytest

import repro
from repro._compat import reset_deprecation_registry
from repro.core import characterize_module
from repro.eval import ExperimentConfig
from repro.modules import make_module
from repro.runtime import characterization_seed
from repro.stats.wordstats import WordStats

CONFIG = ExperimentConfig(n_characterization=300, seed=11)


@pytest.fixture(autouse=True)
def _fresh_warning_registry():
    reset_deprecation_registry()
    yield
    reset_deprecation_registry()


@pytest.fixture(scope="module")
def session():
    return repro.Session(config=CONFIG)


def test_package_exports_facade():
    assert "Session" in repro.__all__
    assert repro.Session is not None
    assert "Session" in dir(repro)


def test_characterize_parity(session):
    result = session.characterize("ripple_adder", 3)
    direct = characterize_module(
        make_module("ripple_adder", 3),
        n_patterns=CONFIG.n_characterization,
        seed=characterization_seed(CONFIG.seed, 3, False, "ripple_adder"),
        enhanced=False,
        stimulus=CONFIG.basic_stimulus,
    )
    np.testing.assert_array_equal(
        result.model.coefficients, direct.model.coefficients
    )
    np.testing.assert_array_equal(result.model.counts, direct.model.counts)


def test_characterize_enhanced_default():
    enhanced_session = repro.Session(config=CONFIG, enhanced=True)
    result = enhanced_session.characterize("ripple_adder", 3)
    assert result.enhanced is not None
    basic = enhanced_session.characterize("ripple_adder", 3, enhanced=False)
    assert basic.enhanced is None


def test_characterize_many_matches_single(session):
    report = session.characterize_many([
        ("ripple_adder", 3),
        ("ripple_adder", 4, True),
    ])
    assert report.failures == 0
    single = session.characterize("ripple_adder", 3)
    np.testing.assert_array_equal(
        report.results[0].model.coefficients, single.model.coefficients
    )
    assert report.results[1].enhanced is not None


def test_estimate_parity(session, rng):
    served = session.registry().get("ripple_adder", 3, enhanced=False)
    bits = rng.integers(0, 2, size=(24, served.module.input_bits))
    facade = session.estimate("ripple_adder", 3, bits)
    direct = served.estimator.estimate_from_bits(bits.astype(bool))
    assert facade.average_charge == pytest.approx(
        direct.average_charge, abs=1e-9
    )
    np.testing.assert_allclose(facade.cycle_charge, direct.cycle_charge)


def test_estimate_accepts_word_streams(session, rng):
    from repro.serve.batching import streams_to_bits
    from repro.signals.encoding import signed_range

    served = session.registry().get("ripple_adder", 3, enhanced=False)
    words = [
        rng.integers(*signed_range(w), endpoint=True, size=12).tolist()
        for _, w in served.module.operand_specs
    ]
    facade = session.estimate("ripple_adder", 3, words)
    direct = served.estimator.estimate_from_bits(
        streams_to_bits(served.module, words)
    )
    assert facade.average_charge == pytest.approx(
        direct.average_charge, abs=1e-9
    )


def test_estimate_rejects_garbage(session):
    with pytest.raises(TypeError, match="stream"):
        session.estimate("ripple_adder", 3, "not a stream")


def test_estimate_analytic_parity(session):
    stats = [
        WordStats(mean=0.0, variance=3.0, rho=0.4),
        WordStats(mean=1.0, variance=2.0, rho=0.0),
    ]
    served = session.registry().get("ripple_adder", 3, enhanced=False)
    facade = session.estimate_analytic(
        "ripple_adder", 3,
        [{"mean": 0.0, "variance": 3.0, "rho": 0.4},
         {"mean": 1.0, "variance": 2.0}],
    )
    direct = served.estimator.estimate_analytic(served.module, stats)
    assert facade.average_charge == pytest.approx(
        direct.average_charge, abs=1e-9
    )


def test_estimate_distribution_parity(session):
    served = session.registry().get("ripple_adder", 3, enhanced=False)
    width = served.estimator.model.width
    pmf = np.full(width + 1, 1.0 / (width + 1))
    facade = session.estimate_distribution("ripple_adder", 3, pmf.tolist())
    direct = served.estimator.estimate_from_distribution(pmf)
    assert facade.average_charge == pytest.approx(
        direct.average_charge, abs=1e-9
    )


def test_registry_is_cached_per_session(session):
    assert session.registry() is session.registry()
    estimator = session.estimator("ripple_adder", 3)
    assert estimator.estimate_from_distribution is not None


def test_session_cache_roundtrip(tmp_path):
    first = repro.Session(config=CONFIG, cache_dir=tmp_path)
    first.characterize("ripple_adder", 3)
    warm = repro.Session(config=CONFIG, cache_dir=tmp_path)
    warm.characterize("ripple_adder", 3)
    assert warm.cache.hits == 1


def test_session_validation():
    with pytest.raises(ValueError, match="jobs"):
        repro.Session(jobs=0)
    with pytest.raises(TypeError, match="unexpected"):
        repro.Session(bogus=1)


# ----------------------------------------------------------------------
# Renamed-parameter shims: old spellings work and warn exactly once
# ----------------------------------------------------------------------
def _deprecations(record):
    return [w for w in record if issubclass(w.category, DeprecationWarning)]


def test_session_n_jobs_shim_warns_once():
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        first = repro.Session(config=CONFIG, n_jobs=3)
        repro.Session(config=CONFIG, n_jobs=2)
    assert first.jobs == 3
    assert len(_deprecations(record)) == 1


def _engine_entry_points(module):
    from repro.circuit import PowerSimulator, net_power_breakdown

    bits = np.zeros((2, module.input_bits), dtype=bool)
    return {
        "session": lambda **kw: repro.Session(config=CONFIG, **kw),
        "simulator": lambda **kw: PowerSimulator(module.compiled, **kw),
        "characterize_module": lambda **kw: characterize_module(
            module, n_patterns=200, **kw
        ),
        "experiment_config": lambda **kw: ExperimentConfig(**kw),
        "net_power_breakdown": lambda **kw: net_power_breakdown(
            module.compiled, bits, **kw
        ),
    }


@pytest.mark.parametrize(
    "entry",
    [
        "session",
        "simulator",
        "characterize_module",
        "experiment_config",
        "net_power_breakdown",
    ],
)
@pytest.mark.parametrize("keyword", ["engine", "simulation_engine"])
def test_engine_keywords_removed(ripple8, keyword, entry):
    """The engine option and its PR-5 spelling are gone everywhere: one
    simulation engine, so passing either is a TypeError."""
    call = _engine_entry_points(ripple8)[entry]
    with pytest.raises(TypeError, match=keyword):
        call(**{keyword: "bool"})


def test_characterize_jobs_n_jobs_shim():
    from repro.runtime import CharacterizationJob, characterize_jobs

    jobs = [CharacterizationJob("ripple_adder", 2)]
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        report = characterize_jobs(jobs, config=CONFIG, n_jobs=1)
        characterize_jobs(jobs, config=CONFIG, n_jobs=1)
    assert report.failures == 0
    assert len(_deprecations(record)) == 1


def test_characterize_jobs_legacy_positional_list():
    """jobs=<sequence> used to be the request list; still works, warns."""
    from repro.runtime import CharacterizationJob, characterize_jobs

    requests = [CharacterizationJob("ripple_adder", 2)]
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        report = characterize_jobs(jobs=requests, config=CONFIG)
    assert report.failures == 0
    assert len(report.results) == 1
    caught = _deprecations(record)
    assert len(caught) == 1
    assert "requests" in str(caught[0].message)


def test_new_spellings_do_not_warn(tmp_path):
    from repro.runtime import CharacterizationJob, characterize_jobs

    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        repro.Session(config=CONFIG, jobs=2)
        characterize_jobs(
            [CharacterizationJob("ripple_adder", 2)],
            config=CONFIG, jobs=1,
        )
    assert _deprecations(record) == []


# ----------------------------------------------------------------------
# Technology calibration through the facade (repro.tech)
# ----------------------------------------------------------------------
def test_estimate_with_node_wraps_physical(session, rng):
    from repro.tech import CalibratedEstimate, get_node

    bits = rng.integers(0, 2, size=(60, 4)).astype(bool)
    plain = session.estimate("ripple_adder", 2, bits)
    physical = session.estimate("ripple_adder", 2, bits, node="45nm")
    assert isinstance(physical, CalibratedEstimate)
    # Post-hoc: the normalized figure is bit-identical to the plain call.
    assert physical.average_charge_units == plain.average_charge
    node = get_node("45nm")
    assert physical.energy_joules == pytest.approx(
        plain.average_charge * node.cap_per_unit * node.nominal_vdd**2
    )
    assert physical.area_m2 > 0 and physical.leakage_watts > 0


def test_estimate_without_node_returns_bare_result(session, rng):
    bits = rng.integers(0, 2, size=(40, 4)).astype(bool)
    result = session.estimate("ripple_adder", 2, bits)
    assert not hasattr(result, "physical")
    assert not hasattr(result, "energy_joules")


def test_estimate_analytic_with_node(session):
    physical = session.estimate_analytic(
        "ripple_adder", 2,
        operand_stats=[{"mean": 0.0, "variance": 1.0, "rho": 0.0}] * 2,
        node="90nm", vdd=1.0,
    )
    assert physical.node == "90nm" and physical.vdd == 1.0
    assert physical.power_watts > 0


def test_stream_with_node_carries_physical(session, rng):
    stream = session.stream("ripple_adder", 2, node="22nm")
    bits = rng.integers(0, 2, size=(30, 4))
    running = stream.feed(bits)
    assert running.physical is not None
    assert running.physical["node"] == "22nm"


def test_facade_rejects_unknown_node(session, rng):
    bits = rng.integers(0, 2, size=(10, 4)).astype(bool)
    with pytest.raises(ValueError, match="unknown technology node"):
        session.estimate("ripple_adder", 2, bits, node="3nm")
