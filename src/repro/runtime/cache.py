"""Persistent content-addressed cache for characterization artifacts.

Characterization is the expensive step of the whole flow; the cache makes it
pay-once.  Every artifact — a fitted :class:`CharacterizationResult` or an
evaluation ``(events, trace)`` pair — is stored as one JSON file (numeric
arrays as base64 of their raw little-endian bytes) named by the SHA-256 of
its *complete* provenance: record type, module kind and
width, the full experiment configuration, the seed and the characterization
code-version tag.  Two consequences:

* identical configurations always map to the same file, across processes
  and machines, so re-running a benchmark suite is pure cache hits;
* any change to the configuration **or** to the characterization algorithm
  (via :data:`~repro.core.characterize.CHARACTERIZATION_VERSION`) changes
  the key, so stale entries are never served — they are simply orphaned
  and reclaimed by ``repro-power cache clear``.

The default location is ``~/.cache/repro-hd``, overridable with the
``REPRO_CACHE_DIR`` environment variable or the ``directory`` argument.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..circuit.power import PowerTrace
from ..core.accumulator import ClassAccumulator
from ..core.characterize import (
    CHARACTERIZATION_VERSION,
    CharacterizationResult,
)
from ..core.enhanced import EnhancedHdModel
from ..core.events import TransitionEvents
from ..core.hd_model import HdPowerModel
from ..core.serialize import decode_array, encode_array
from ..obs.events import EVENTS
from ..obs.tracing import span

PathLike = Union[str, Path]

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = "~/.cache/repro-hd"

#: On-disk payload format; bump when the JSON layout itself changes.
#: "2": numeric arrays are base64 of raw little-endian bytes
#: (:func:`~repro.core.serialize.encode_array`).  A record of another
#: format is a ``stale`` miss, re-characterized and overwritten in place.
CACHE_FORMAT_VERSION = "2"

#: Per-process sequence for temp-file names.  Combined with the pid —
#: read at *call* time, never captured at import — it makes every
#: in-flight write target a distinct file, so two ``--jobs`` workers
#: storing the same key can never interleave writes to a shared temp
#: name (which could rename a half-written record into place) or steal
#: each other's temp file out from under the atomic ``replace``.
_TMP_SEQUENCE = itertools.count()


def _reset_tmp_sequence() -> None:
    """Restart the temp-name sequence in a freshly forked child.

    ``fork()`` copies the parent's counter position into every child, so
    a fleet of workers forked from one warm parent would all mint their
    next temp name from the same sequence value.  The pid component keeps
    the names unique while the pids stay alive, but a recycled pid (or a
    pid-agnostic consumer of the names) would collide — resetting per
    child keeps the sequence a genuinely per-process namespace.
    """
    global _TMP_SEQUENCE
    _TMP_SEQUENCE = itertools.count()


if hasattr(os, "register_at_fork"):  # absent on platforms without fork()
    os.register_at_fork(after_in_child=_reset_tmp_sequence)


def default_cache_dir() -> Path:
    """The cache directory honoring ``REPRO_CACHE_DIR``."""
    return Path(
        os.environ.get(ENV_CACHE_DIR, DEFAULT_CACHE_DIR)
    ).expanduser()


def _config_payload(config: Any) -> Dict[str, Any]:
    """A JSON-stable view of an experiment configuration."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    elif isinstance(config, dict):
        payload = dict(config)
    else:
        raise TypeError(
            f"config must be a dataclass or dict, got {type(config).__name__}"
        )
    # The oracle self-check can only *reject* a wrong trace, never change
    # a correct one: keying on it would split the cache between runs that
    # produce byte-for-byte the same artifacts.
    payload.pop("self_check", None)
    return payload


# ----------------------------------------------------------------------
# Payload codecs (format "2"): every numeric array is one base64 field.
# ----------------------------------------------------------------------
_BASIC_ARRAYS = (("coefficients", np.float64), ("deviations", np.float64),
                 ("counts", np.int64), ("standard_errors", np.float64))
#: An enhanced model's three maps, stored as columns over one key array.
_ENHANCED_COLUMNS = (("coefficients", np.float64), ("counts", np.int64),
                     ("deviations", np.float64))
_EVENT_ARRAYS = ("hd", "stable_zeros", "stable_ones")


def _encode_basic(model: HdPowerModel) -> Dict[str, Any]:
    return {"name": model.name, "width": model.width, **{
        name: encode_array(getattr(model, name), dtype)
        for name, dtype in _BASIC_ARRAYS
    }}


def _decode_basic(data: Dict[str, Any]) -> HdPowerModel:
    width = int(data["width"])
    arrays = {name: decode_array(data[name], dtype, (width + 1,))
              for name, dtype in _BASIC_ARRAYS}
    # Interned: the models of one record share one name object, as those
    # of a fresh characterization do (so their pickles match too).
    return HdPowerModel(name=sys.intern(data["name"]), width=width, **arrays)


def _encode_enhanced(model: EnhancedHdModel) -> Dict[str, Any]:
    keys = list(model.coefficients)
    if list(model.counts) != keys or list(model.deviations) != keys:
        raise ValueError(
            f"enhanced model {model.name!r}: coefficients, counts and "
            "deviations must share one key sequence"
        )
    return {
        "name": model.name,
        "width": model.width,
        "cluster_size": model.cluster_size,
        "keys": encode_array(keys, np.int64),
        **{name: encode_array(list(getattr(model, name).values()), dtype)
           for name, dtype in _ENHANCED_COLUMNS},
        "fallback": _encode_basic(model.fallback),
    }


def _decode_enhanced(data: Dict[str, Any]) -> EnhancedHdModel:
    hd, zeros = decode_array(data["keys"], np.int64, (-1, 2)).T.tolist()
    keys = list(zip(hd, zeros))  # one tuple per key, shared by all maps
    columns = {
        name: dict(zip(keys, decode_array(data[name], dtype,
                                          (len(keys),)).tolist()))
        for name, dtype in _ENHANCED_COLUMNS
    }
    return EnhancedHdModel(
        name=sys.intern(data["name"]),
        width=int(data["width"]),
        cluster_size=int(data["cluster_size"]),
        fallback=_decode_basic(data["fallback"]),
        **columns,
    )


def _encode_characterization(result: CharacterizationResult) -> Dict[str, Any]:
    enhanced, accumulator = result.enhanced, result.accumulator
    return {
        "model": _encode_basic(result.model),
        "enhanced": None if enhanced is None else _encode_enhanced(enhanced),
        "n_patterns": result.n_patterns,
        "converged": result.converged,
        # Histories may hold inf (sparse batches); raw float64 keeps it.
        "history": encode_array(result.history, np.float64),
        "average_charge": result.average_charge,
        "convergence_reason": result.convergence_reason,
        "accumulator": None if accumulator is None else accumulator.snapshot(),
    }


def _decode_characterization(
    payload: Dict[str, Any]
) -> CharacterizationResult:
    enhanced, accumulator = payload["enhanced"], payload["accumulator"]
    return CharacterizationResult(
        model=_decode_basic(payload["model"]),
        enhanced=None if enhanced is None else _decode_enhanced(enhanced),
        n_patterns=int(payload["n_patterns"]),
        converged=bool(payload["converged"]),
        history=decode_array(payload["history"], np.float64, (-1,)).tolist(),
        average_charge=float(payload["average_charge"]),
        convergence_reason=payload["convergence_reason"],
        accumulator=(None if accumulator is None
                     else ClassAccumulator.restore(accumulator)),
    )


def _encode_trace(
    events: TransitionEvents, trace: PowerTrace
) -> Dict[str, Any]:
    return {
        "width": events.width,
        "cycles": events.n_cycles,
        **{name: encode_array(getattr(events, name), np.int64)
           for name in _EVENT_ARRAYS},
        "charge": encode_array(trace.charge, np.float64),
        "total_toggles": encode_array(trace.total_toggles, np.int64),
    }


def _decode_trace(
    payload: Dict[str, Any]
) -> Tuple[TransitionEvents, PowerTrace]:
    shape = (int(payload["cycles"]),)
    events = TransitionEvents(width=int(payload["width"]), **{
        name: decode_array(payload[name], np.int64, shape)
        for name in _EVENT_ARRAYS
    })
    return events, PowerTrace(
        charge=decode_array(payload["charge"], np.float64, shape),
        total_toggles=decode_array(payload["total_toggles"], np.int64, shape),
    )


class ModelCache:
    """Content-addressed disk cache of characterization artifacts.

    Args:
        directory: Cache root; defaults to ``$REPRO_CACHE_DIR`` or
            ``~/.cache/repro-hd``.  Created lazily on first store.

    Attributes:
        hits: Successful loads served by this instance.
        misses: Lookups that found no usable entry (including a record
            of an older :data:`CACHE_FORMAT_VERSION`).
        stores: Entries written by this instance.
        quarantined: Corrupt records found and moved aside (``.corrupt``)
            by this instance.  A truncated or garbled file — a crashed
            writer, a full disk, bit rot — is treated as a miss, never an
            exception, and is renamed out of the lookup path so the next
            run re-characterizes and re-stores cleanly.
    """

    def __init__(self, directory: Optional[PathLike] = None):
        self.directory = (
            Path(directory).expanduser()
            if directory is not None
            else default_cache_dir()
        )
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def make_key(payload: Dict[str, Any]) -> str:
        """SHA-256 over the canonical JSON form of a provenance payload."""
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def characterization_key(
        self,
        kind: str,
        width: int,
        enhanced: bool,
        config: Any,
        seed: int,
    ) -> str:
        """Key of one characterization run's full provenance."""
        return self.make_key({
            "record": "characterization",
            "kind": kind,
            "width": int(width),
            "enhanced": bool(enhanced),
            "seed": int(seed),
            "config": _config_payload(config),
            "code_version": CHARACTERIZATION_VERSION,
        })

    def trace_key(
        self,
        kind: str,
        width: int,
        data_type: str,
        config: Any,
        seed: int,
    ) -> str:
        """Key of one evaluation (events, trace) pair's provenance."""
        return self.make_key({
            "record": "trace",
            "kind": kind,
            "width": int(width),
            "data_type": data_type,
            "seed": int(seed),
            "config": _config_payload(config),
            "code_version": CHARACTERIZATION_VERSION,
        })

    # ------------------------------------------------------------------
    # Raw record I/O
    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _quarantine(self, key: str) -> None:
        """Move a corrupt record out of the lookup path (``.corrupt``)."""
        path = self._path(key)
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            # Renaming failed (e.g. permissions): best effort removal so
            # the poisoned record cannot be served again.
            path.unlink(missing_ok=True)
        self.quarantined += 1
        EVENTS.cache_quarantined.inc()

    def _demote_to_quarantined_miss(self, key: str) -> None:
        """Turn an already counted hit into a quarantined miss.

        Used by the typed loaders when a record parses as JSON (so
        :meth:`load` counted a hit) but its payload is structurally
        unusable.
        """
        self.hits -= 1
        self.misses += 1
        # The global counters are monotonic, so the earlier hit cannot be
        # retracted; record the demotion as its own outcome instead
        # (true hits = hit - demoted when aggregating).
        EVENTS.cache_lookups.inc(result="demoted")
        self._quarantine(key)

    def _count(self, result: str) -> str:
        if result == "hit":
            self.hits += 1
        else:
            self.misses += 1
        EVENTS.cache_lookups.inc(result=result)
        return result

    def _read(self, key: str) -> Tuple[str, Optional[Dict[str, Any]]]:
        """Fetch and count a raw record: ``(outcome, record or None)``.

        The outcome is ``hit``, ``miss`` or ``stale`` (a valid record of
        another :data:`CACHE_FORMAT_VERSION`: a miss, which the caller's
        re-store overwrites at the same path).
        """
        path = self._path(key)
        try:
            record = json.loads(path.read_text())
        except FileNotFoundError:
            return self._count("miss"), None
        except (ValueError, UnicodeDecodeError):
            # json.JSONDecodeError is a ValueError; UnicodeDecodeError
            # covers non-text garbage.
            self._quarantine(key)
            return self._count("miss"), None
        if not isinstance(record, dict):
            self._quarantine(key)
            return self._count("miss"), None
        if record.get("format") != CACHE_FORMAT_VERSION:
            return self._count("stale"), None
        return self._count("hit"), record

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Fetch a raw record; counts a hit, a miss or a stale miss.

        A record that exists but cannot be parsed — truncated write,
        binary garbage, or a non-object top level — is quarantined and
        reported as a miss rather than raised.
        """
        return self._read(key)[1]

    def _load_typed(self, key: str, record: str,
                    decode: Callable[[Dict[str, Any]], Any]) -> Any:
        """:meth:`load` plus ``decode`` of the payload, in one span."""
        with span("cache.lookup", record=record) as live:
            result, raw = self._read(key)
            value = None
            if raw is not None:
                try:
                    value = decode(raw["payload"])
                except (KeyError, TypeError, ValueError, AttributeError):
                    # Parsed as JSON but structurally wrong (a truncated
                    # rewrite that still closed its braces, a bad base64
                    # array — binascii.Error is a ValueError): same
                    # treatment as unparseable.
                    self._demote_to_quarantined_miss(key)
                    result = "demoted"
            live.set(result=result)
            return value

    def store(
        self, key: str, payload: Dict[str, Any], meta: Dict[str, Any]
    ) -> Path:
        """Write a record atomically (write + rename); counts a store."""
        self.directory.mkdir(parents=True, exist_ok=True)
        record = {
            "format": CACHE_FORMAT_VERSION,
            "created": time.time(),
            "meta": meta,
            "payload": payload,
        }
        path = self._path(key)
        # Unique temp name (same directory, so replace() stays atomic):
        # a shared name would let concurrent writers corrupt each other.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_TMP_SEQUENCE)}.tmp"
        )
        try:
            tmp.write_text(json.dumps(record))
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)
        self.stores += 1
        EVENTS.cache_stores.inc()
        return path

    # ------------------------------------------------------------------
    # Characterization records
    # ------------------------------------------------------------------
    def load_characterization(
        self, key: str
    ) -> Optional[CharacterizationResult]:
        return self._load_typed(
            key, "characterization", _decode_characterization
        )

    def store_characterization(
        self,
        key: str,
        result: CharacterizationResult,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        with span("cache.store", record="characterization"):
            base = {"record": "characterization", "name": result.model.name}
            return self.store(
                key, _encode_characterization(result),
                {**base, **(meta or {})},
            )

    # ------------------------------------------------------------------
    # Evaluation (events, trace) records
    # ------------------------------------------------------------------
    def load_trace(
        self, key: str
    ) -> Optional[Tuple[TransitionEvents, PowerTrace]]:
        return self._load_typed(key, "trace", _decode_trace)

    def store_trace(
        self,
        key: str,
        events: TransitionEvents,
        trace: PowerTrace,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        with span("cache.store", record="trace"):
            return self.store(
                key, _encode_trace(events, trace),
                {"record": "trace", **(meta or {})},
            )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, Any]]:
        """Metadata of every cache entry, newest first."""
        rows = []
        if not self.directory.is_dir():
            return rows
        for path in self.directory.glob("*.json"):
            try:
                record = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            rows.append({
                "key": path.stem,
                "bytes": path.stat().st_size,
                "created": record.get("created", 0.0),
                **record.get("meta", {}),
            })
        rows.sort(key=lambda row: row["created"], reverse=True)
        return rows

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for path in self.directory.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        for pattern in ("*.tmp", "*.corrupt"):
            for path in self.directory.glob(pattern):
                path.unlink(missing_ok=True)
        return removed

    def stats(self) -> Dict[str, Any]:
        """Entry count, total size and this instance's runtime counters."""
        entries = self.entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": sum(row["bytes"] for row in entries),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
        }
