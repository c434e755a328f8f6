"""Persistent content-addressed cache for characterization artifacts.

Characterization is the expensive step of the whole flow; the cache makes it
pay-once.  Every artifact — a fitted :class:`CharacterizationResult` or an
evaluation ``(events, trace)`` pair — is stored as one JSON file named by
the SHA-256 of its *complete* provenance: record type, module kind and
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
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..circuit.power import PowerTrace
from ..core.accumulator import ClassAccumulator
from ..obs.events import EVENTS
from ..core.characterize import (
    CHARACTERIZATION_VERSION,
    CharacterizationResult,
)
from ..core.events import TransitionEvents
from ..core.serialize import model_from_dict, model_to_dict

PathLike = Union[str, Path]

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = "~/.cache/repro-hd"

#: On-disk payload format; bump when the JSON layout itself changes.
CACHE_FORMAT_VERSION = "1"

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


class ModelCache:
    """Content-addressed disk cache of characterization artifacts.

    Args:
        directory: Cache root; defaults to ``$REPRO_CACHE_DIR`` or
            ``~/.cache/repro-hd``.  Created lazily on first store.

    Attributes:
        hits: Successful loads served by this instance.
        misses: Lookups that found no entry.
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

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Fetch a raw record; counts a hit or miss.

        A record that exists but cannot be parsed — truncated write,
        binary garbage, or a non-object top level — is quarantined and
        reported as a miss rather than raised.
        """
        path = self._path(key)
        try:
            record = json.loads(path.read_text())
        except FileNotFoundError:
            self._count_miss()
            return None
        except (ValueError, UnicodeDecodeError):
            # json.JSONDecodeError is a ValueError; UnicodeDecodeError
            # covers non-text garbage.
            self._quarantine(key)
            self._count_miss()
            return None
        if not isinstance(record, dict):
            self._quarantine(key)
            self._count_miss()
            return None
        if record.get("format") != CACHE_FORMAT_VERSION:
            # Valid record of another layout generation: plain miss, the
            # file may still be readable by other tooling.
            self._count_miss()
            return None
        self.hits += 1
        EVENTS.cache_lookups.inc(result="hit")
        return record

    def _count_miss(self) -> None:
        self.misses += 1
        EVENTS.cache_lookups.inc(result="miss")

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
        record = self.load(key)
        if record is None:
            return None
        try:
            payload = record["payload"]
            accumulator = None
            if payload.get("accumulator") is not None:
                accumulator = ClassAccumulator.from_dict(
                    payload["accumulator"]
                )
            return CharacterizationResult(
                model=model_from_dict(payload["model"]),
                enhanced=(
                    model_from_dict(payload["enhanced"])
                    if payload.get("enhanced") is not None
                    else None
                ),
                n_patterns=int(payload["n_patterns"]),
                converged=bool(payload["converged"]),
                history=[float(v) for v in payload["history"]],
                average_charge=float(payload["average_charge"]),
                convergence_reason=payload.get("convergence_reason", ""),
                accumulator=accumulator,
            )
        except (KeyError, TypeError, ValueError, AttributeError):
            # Parsed as JSON but structurally wrong (e.g. a truncated
            # rewrite that still closed its braces): same treatment as
            # unparseable — quarantine and miss.
            self._demote_to_quarantined_miss(key)
            return None

    def store_characterization(
        self,
        key: str,
        result: CharacterizationResult,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        payload = {
            "model": model_to_dict(result.model),
            "enhanced": (
                model_to_dict(result.enhanced)
                if result.enhanced is not None
                else None
            ),
            "n_patterns": result.n_patterns,
            "converged": result.converged,
            # JSON has no inf; histories may contain it for sparse batches.
            "history": [
                v if np.isfinite(v) else repr(v) for v in result.history
            ],
            "average_charge": result.average_charge,
            "convergence_reason": result.convergence_reason,
            "accumulator": (
                result.accumulator.to_dict()
                if result.accumulator is not None
                else None
            ),
        }
        base = {"record": "characterization", "name": result.model.name}
        return self.store(key, payload, {**base, **(meta or {})})

    # ------------------------------------------------------------------
    # Evaluation (events, trace) records
    # ------------------------------------------------------------------
    def load_trace(
        self, key: str
    ) -> Optional[Tuple[TransitionEvents, PowerTrace]]:
        record = self.load(key)
        if record is None:
            return None
        try:
            payload = record["payload"]
            events = TransitionEvents(
                width=int(payload["width"]),
                hd=np.asarray(payload["hd"], dtype=np.int64),
                stable_zeros=np.asarray(
                    payload["stable_zeros"], dtype=np.int64
                ),
                stable_ones=np.asarray(
                    payload["stable_ones"], dtype=np.int64
                ),
            )
            trace = PowerTrace(
                charge=np.asarray(payload["charge"], dtype=np.float64),
                total_toggles=np.asarray(
                    payload["total_toggles"], dtype=np.int64
                ),
            )
            return events, trace
        except (KeyError, TypeError, ValueError, AttributeError):
            self._demote_to_quarantined_miss(key)
            return None

    def store_trace(
        self,
        key: str,
        events: TransitionEvents,
        trace: PowerTrace,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        payload = {
            "width": events.width,
            "hd": events.hd.tolist(),
            "stable_zeros": events.stable_zeros.tolist(),
            "stable_ones": events.stable_ones.tolist(),
            "charge": trace.charge.tolist(),
            "total_toggles": trace.total_toggles.tolist(),
        }
        base = {"record": "trace"}
        return self.store(key, payload, {**base, **(meta or {})})

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
