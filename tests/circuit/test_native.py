"""Native backend robustness: failed builds leave no litter and are loud."""

import shutil
import warnings

import pytest

from repro.circuit import native as native_mod
from repro.obs.events import EVENTS


@pytest.fixture
def unresolved(monkeypatch):
    """A native module that has not resolved its backend or warned yet."""
    monkeypatch.setattr(native_mod, "_KERNEL", False)
    monkeypatch.setattr(native_mod, "_DECODE", False)
    monkeypatch.setattr(native_mod, "_STATUS", "unresolved")
    monkeypatch.setattr(native_mod, "_WARNED", False)
    monkeypatch.setattr(native_mod, "_FORCED", None)
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    yield monkeypatch
    monkeypatch.undo()
    # Republish the restored backend on the next lookup.
    native_mod._PUBLISHED = None


def _runtime_warnings(record):
    return [w for w in record if issubclass(w.category, RuntimeWarning)]


@pytest.mark.skipif(shutil.which("false") is None, reason="needs false(1)")
def test_failed_build_leaves_no_temp_file(monkeypatch, tmp_path):
    """A compiler that fails must not strand its mkstemp .so file."""
    monkeypatch.setenv("CC", "false")
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    assert native_mod._build_library() is None
    assert list(tmp_path.glob("*.so")) == []


def test_failed_build_warns_once(unresolved):
    unresolved.setattr(native_mod, "_build_library", lambda: None)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert native_mod.native_kernel() is None
        assert native_mod.native_kernel() is None
        # Even a second resolution in the same process stays quiet.
        unresolved.setattr(native_mod, "_KERNEL", False)
        assert native_mod.native_kernel() is None
    caught = _runtime_warnings(record)
    assert len(caught) == 1
    assert "numpy fallback" in str(caught[0].message)
    assert "REPRO_NATIVE=0" in str(caught[0].message)


def test_disabled_on_purpose_is_silent(unresolved):
    unresolved.setattr(native_mod, "_build_library", lambda: None)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        unresolved.setenv("REPRO_NATIVE", "0")
        assert native_mod.native_kernel() is None
        unresolved.delenv("REPRO_NATIVE")
        native_mod.set_native_enabled(False)
        assert native_mod.native_kernel() is None
    assert _runtime_warnings(record) == []


def test_backend_gauge_labels(unresolved):
    gauge = EVENTS.native_backend
    unresolved.setattr(native_mod, "_build_library", lambda: None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        native_mod.native_kernel()
    assert gauge.value(status="numpy") == 1.0
    assert gauge.value(status="native") == 0.0
    assert gauge.value(status="disabled") == 0.0
    unresolved.setenv("REPRO_NATIVE", "0")
    native_mod.native_kernel()
    assert gauge.value(status="disabled") == 1.0
    assert gauge.value(status="numpy") == 0.0
    page = EVENTS.render()
    assert "# TYPE repro_native_backend gauge" in page
    assert 'repro_native_backend{status="disabled"} 1' in page
    assert 'repro_native_backend{status="numpy"} 0' in page
