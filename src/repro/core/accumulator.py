"""Incremental switching-event statistics (the characterization hot path).

:func:`~repro.core.characterize.characterize_module` historically kept every
batch's ``(hd, stable_zeros, charge)`` arrays and re-concatenated and refitted
the full history after each batch, making the convergence loop O(batches²) in
work and allocation.  :class:`ClassAccumulator` replaces that with running
per-class statistics: one cell per ``(hd, stable_zeros)`` switching-event
subclass holding the sample count, charge sum, charge sum-of-squares and
running absolute deviations.  Updating with a batch is O(batch + m²) and a
convergence check is O(m), independent of how many patterns have been
consumed.

Accumulators are *mergeable* (`merge`), which is what lets parallel
characterization workers each process a slice of the stream and ship their
accumulator back to the parent for a single combined fit, and they capture
bit-exactly to JSON (`snapshot` / `restore`) so the persistent model cache
can store them next to the fitted coefficients.

Exactness: sample counts, per-class charge sums — and therefore the fitted
coefficients ``p_i`` / ``p_{i,z}`` — match a concatenate-and-refit over the
same stream exactly up to float addition order (≪ 1e-12 relative).  The
per-class absolute deviations ``ε`` are accumulated against the *running*
class mean at update time instead of the final mean (a mean absolute
deviation cannot be reduced from moments), so they converge to — but are not
bitwise equal to — the two-pass values; they remain deterministic for a fixed
stream and batch schedule.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..obs.events import EVENTS
from ..obs.tracing import span
from .serialize import decode_array, encode_array


class ClassAccumulator:
    """Running ``(hd, stable_zeros)`` subclass statistics of a charge stream.

    Args:
        width: Module input bit count ``m``; valid cells are ``(i, z)`` with
            ``0 <= i <= m`` and ``0 <= z <= m - i``.

    Attributes:
        counts: ``[m+1, m+1]`` per-cell sample counts.
        sums: Per-cell charge sums (coefficients are ``sums / counts``).
        sumsq: Per-cell charge sums-of-squares (for standard errors).
        abs_dev: Per-cell running absolute deviation sums (enhanced ε).
        abs_dev_hd: ``[m+1]`` running absolute deviation sums against the
            Hd-marginal mean (basic-model ε).
    """

    __slots__ = ("width", "counts", "sums", "sumsq", "abs_dev", "abs_dev_hd")

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = int(width)
        cells = self.width + 1
        self.counts = np.zeros((cells, cells), dtype=np.int64)
        self.sums = np.zeros((cells, cells), dtype=np.float64)
        self.sumsq = np.zeros((cells, cells), dtype=np.float64)
        self.abs_dev = np.zeros((cells, cells), dtype=np.float64)
        self.abs_dev_hd = np.zeros(cells, dtype=np.float64)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(
        self,
        hd: np.ndarray,
        stable_zeros: np.ndarray,
        charge: np.ndarray,
    ) -> "ClassAccumulator":
        """Fold one batch of classified transitions into the statistics.

        Args:
            hd: Per-cycle Hamming distances.
            stable_zeros: Per-cycle stable-zero counts (same length).
            charge: Per-cycle reference charges (same length).

        Returns:
            ``self`` (for chaining).
        """
        hd = np.asarray(hd, dtype=np.int64)
        stable_zeros = np.asarray(stable_zeros, dtype=np.int64)
        charge = np.asarray(charge, dtype=np.float64)
        if not (hd.shape == stable_zeros.shape == charge.shape):
            raise ValueError("hd, stable_zeros and charge must align")
        if hd.size == 0:
            return self
        EVENTS.fit_updates.inc()
        EVENTS.fit_samples.inc(int(hd.size))
        with span("fit.update", samples=int(hd.size)):
            return self._update(hd, stable_zeros, charge)

    def _update(
        self,
        hd: np.ndarray,
        stable_zeros: np.ndarray,
        charge: np.ndarray,
    ) -> "ClassAccumulator":
        if hd.min() < 0 or hd.max() > self.width:
            raise ValueError(f"Hd values out of range 0..{self.width}")
        if stable_zeros.min() < 0 or np.any(hd + stable_zeros > self.width):
            raise ValueError("hd + stable_zeros exceeds the bit width")
        cells = self.width + 1
        flat = hd * cells + stable_zeros
        size = cells * cells
        self.counts += np.bincount(flat, minlength=size).reshape(cells, cells)
        self.sums += np.bincount(
            flat, weights=charge, minlength=size
        ).reshape(cells, cells)
        self.sumsq += np.bincount(
            flat, weights=charge * charge, minlength=size
        ).reshape(cells, cells)
        # Deviations against the just-updated running means (see module
        # docstring for the exactness contract).
        with np.errstate(invalid="ignore", divide="ignore"):
            cell_mean = np.where(
                self.counts > 0, self.sums / np.maximum(self.counts, 1), 0.0
            )
            hd_counts = self.counts.sum(axis=1)
            hd_mean = np.where(
                hd_counts > 0, self.sums.sum(axis=1) / np.maximum(hd_counts, 1), 0.0
            )
        self.abs_dev += np.bincount(
            flat,
            weights=np.abs(charge - cell_mean[hd, stable_zeros]),
            minlength=size,
        ).reshape(cells, cells)
        self.abs_dev_hd += np.bincount(
            hd, weights=np.abs(charge - hd_mean[hd]), minlength=cells
        )
        return self

    def merge(self, other: "ClassAccumulator") -> "ClassAccumulator":
        """Fold another accumulator (e.g. from a worker) into this one."""
        if other.width != self.width:
            raise ValueError(
                f"cannot merge accumulators of widths "
                f"{self.width} and {other.width}"
            )
        self.counts += other.counts
        self.sums += other.sums
        self.sumsq += other.sumsq
        self.abs_dev += other.abs_dev
        self.abs_dev_hd += other.abs_dev_hd
        return self

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Total transitions accumulated so far."""
        return int(self.counts.sum())

    @property
    def average_charge(self) -> float:
        """Mean charge over everything accumulated (0 when empty)."""
        n = self.n_samples
        return float(self.sums.sum() / n) if n else 0.0

    @property
    def hd_counts(self) -> np.ndarray:
        """Per-Hd-class sample counts (zeros axis marginalized)."""
        return self.counts.sum(axis=1)

    @property
    def hd_sums(self) -> np.ndarray:
        """Per-Hd-class charge sums (zeros axis marginalized)."""
        return self.sums.sum(axis=1)

    def hd_means(self) -> np.ndarray:
        """Per-Hd-class mean charge; NaN for classes never observed.

        This is the O(m) ingredient of the characterization convergence
        check: observed entries equal the coefficients a full refit would
        produce (interpolated entries are irrelevant to the check).
        """
        counts = self.hd_counts
        with np.errstate(invalid="ignore"):
            return np.where(
                counts > 0, self.hd_sums / np.maximum(counts, 1), np.nan
            )

    # ------------------------------------------------------------------
    # Serialization (for the persistent cache / worker transport)
    # ------------------------------------------------------------------
    #: Array fields in serialization order, with their fixed dtypes.
    _ARRAY_FIELDS = (
        ("counts", np.int64),
        ("sums", np.float64),
        ("sumsq", np.float64),
        ("abs_dev", np.float64),
        ("abs_dev_hd", np.float64),
    )

    def snapshot(self) -> Dict[str, Any]:
        """Bit-exact JSON-compatible state capture; inverse of :meth:`restore`.

        The arrays are captured as base64 of their raw little-endian bytes
        (:func:`~repro.core.serialize.encode_array`), so every float —
        signed zeros, subnormals, the exact summation residue — round-trips
        bitwise.  This is what lets a streaming estimation session survive
        a serve-worker drain without perturbing its running estimate by
        even one ulp, and what the persistent model cache stores.
        """
        return {
            "version": 1,
            "width": self.width,
            "arrays": {
                name: encode_array(getattr(self, name), dtype)
                for name, dtype in self._ARRAY_FIELDS
            },
        }

    @classmethod
    def restore(cls, data: Dict[str, Any]) -> "ClassAccumulator":
        """Rebuild an accumulator captured by :meth:`snapshot`, bit-exactly.

        Raises:
            ValueError: An array is not strict base64 or has the wrong
                length for ``width``.
        """
        acc = cls(int(data["width"]))
        for name, dtype in cls._ARRAY_FIELDS:
            shape = getattr(acc, name).shape
            setattr(acc, name,
                    decode_array(data["arrays"][name], dtype, shape))
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassAccumulator):
            return NotImplemented
        return self.width == other.width and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("counts", "sums", "sumsq", "abs_dev", "abs_dev_hd")
        )

    def __repr__(self) -> str:
        return (
            f"ClassAccumulator(width={self.width}, "
            f"n_samples={self.n_samples})"
        )
