"""The enhanced Hd-model (Section 3, Eq. 3).

Switching-event classes are split by the number of *stable-zero* bits:
class ``E_{i,z}`` holds transitions with Hamming distance ``i`` and ``z``
bits stable at 0.  For Hd ``i`` the stable-zero count ranges ``0..m-i``, so
the full model has ``M = (m² + m) / 2 + ...`` coefficients; the optional
``cluster_size`` groups neighbouring zero counts to bound the parameter
count, as suggested at the end of Section 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .hd_model import HdPowerModel


@dataclass(frozen=True)
class EnhancedHdModel:
    """Hd model with stable-zero-count sub-classes.

    Attributes:
        name: Module label.
        width: Module input bit count ``m``.
        cluster_size: Zero-count granularity; 1 = full resolution (the
            paper's Eq. 3), larger values cluster zero counts in buckets.
        coefficients: Map ``(hd, zero_bucket) -> p``.
        counts: Map ``(hd, zero_bucket) -> characterization samples``.
        deviations: Map ``(hd, zero_bucket) -> ε`` (Eq. 5 per subclass).
        fallback: Basic model used for subclasses never observed.
    """

    name: str
    width: int
    cluster_size: int
    coefficients: Dict[Tuple[int, int], float]
    counts: Dict[Tuple[int, int], int]
    deviations: Dict[Tuple[int, int], float]
    fallback: HdPowerModel

    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        hd: np.ndarray,
        stable_zeros: np.ndarray,
        charge: np.ndarray,
        width: int,
        cluster_size: int = 1,
        name: str = "",
    ) -> "EnhancedHdModel":
        """Fit subclass coefficients from a characterization trace.

        Args:
            hd: Per-cycle Hamming distances.
            stable_zeros: Per-cycle stable-zero counts.
            charge: Per-cycle reference charges.
            width: Module input bit count ``m``.
            cluster_size: Zero-count bucket width (>= 1).
            name: Model label.
        """
        if cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        hd = np.asarray(hd, dtype=np.int64)
        stable_zeros = np.asarray(stable_zeros, dtype=np.int64)
        charge = np.asarray(charge, dtype=np.float64)
        if not (hd.shape == stable_zeros.shape == charge.shape):
            raise ValueError("hd, stable_zeros and charge must align")
        if np.any(hd + stable_zeros > width):
            raise ValueError("hd + stable_zeros exceeds the bit width")
        fallback = HdPowerModel.fit(hd, charge, width, name=name)
        buckets = stable_zeros // cluster_size
        coefficients: Dict[Tuple[int, int], float] = {}
        counts: Dict[Tuple[int, int], int] = {}
        deviations: Dict[Tuple[int, int], float] = {}
        keys = np.stack([hd, buckets], axis=1)
        order = np.lexsort((buckets, hd))
        sorted_keys = keys[order]
        sorted_charge = charge[order]
        boundaries = np.nonzero(np.any(np.diff(sorted_keys, axis=0) != 0, axis=1))[0] + 1
        for group in np.split(np.arange(len(order)), boundaries):
            # One (i, z) key object, in one order, for all three maps.
            key = tuple(int(v) for v in sorted_keys[group[0]])
            values = sorted_charge[group]
            p = float(values.mean())
            coefficients[key] = p
            counts[key] = int(len(values))
            if p > 0:
                deviations[key] = float(np.abs((values - p) / p).mean())
            else:
                deviations[key] = 0.0
        return cls(
            name=name,
            width=width,
            cluster_size=cluster_size,
            coefficients=coefficients,
            counts=counts,
            deviations=deviations,
            fallback=fallback,
        )

    @classmethod
    def from_accumulator(
        cls,
        accumulator,
        cluster_size: int = 1,
        name: str = "",
    ) -> "EnhancedHdModel":
        """Fit subclass coefficients from accumulated class statistics.

        The incremental counterpart of :meth:`fit` (see
        :meth:`HdPowerModel.from_accumulator`): subclass counts are exact
        and the coefficients match a full refit up to float summation
        order.  Zero-count clustering happens here, at finalization — the
        accumulator always stores full-resolution ``(hd, stable_zeros)``
        cells, so one accumulator can serve any ``cluster_size``.

        Args:
            accumulator: A :class:`~repro.core.accumulator.ClassAccumulator`.
            cluster_size: Zero-count bucket width (>= 1).
            name: Model label.
        """
        if cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        fallback = HdPowerModel.from_accumulator(accumulator, name=name)
        coefficients: Dict[Tuple[int, int], float] = {}
        counts: Dict[Tuple[int, int], int] = {}
        deviations: Dict[Tuple[int, int], float] = {}
        cell_counts = accumulator.counts
        for i, z in zip(*np.nonzero(cell_counts)):
            key = (int(i), int(z) // cluster_size)
            counts[key] = counts.get(key, 0) + int(cell_counts[i, z])
            coefficients[key] = (
                coefficients.get(key, 0.0) + float(accumulator.sums[i, z])
            )
            deviations[key] = (
                deviations.get(key, 0.0) + float(accumulator.abs_dev[i, z])
            )
        for key, total in coefficients.items():
            p = total / counts[key]
            coefficients[key] = p
            deviations[key] = deviations[key] / (counts[key] * p) if p > 0 else 0.0
        return cls(
            name=name,
            width=accumulator.width,
            cluster_size=cluster_size,
            coefficients=coefficients,
            counts=counts,
            deviations=deviations,
            fallback=fallback,
        )

    # ------------------------------------------------------------------
    def predict_cycle(
        self, hd: np.ndarray, stable_zeros: np.ndarray
    ) -> np.ndarray:
        """Per-cycle charge with basic-model fallback for unseen subclasses.

        A subclass observed during characterization uses its own
        coefficient; otherwise the nearest observed zero-bucket of the same
        Hd class is used, and if the Hd class is empty the basic model's
        coefficient applies.
        """
        hd = np.asarray(hd, dtype=np.int64)
        stable_zeros = np.asarray(stable_zeros, dtype=np.int64)
        buckets = stable_zeros // self.cluster_size
        out = np.empty(len(hd), dtype=np.float64)
        cache: Dict[Tuple[int, int], float] = {}
        for j in range(len(hd)):
            key = (int(hd[j]), int(buckets[j]))
            value = cache.get(key)
            if value is None:
                value = self._lookup(*key)
                cache[key] = value
            out[j] = value
        return out

    def _lookup(self, i: int, z: int) -> float:
        direct = self.coefficients.get((i, z))
        if direct is not None:
            return direct
        same_hd = [zz for (ii, zz) in self.coefficients if ii == i]
        if same_hd:
            nearest = min(same_hd, key=lambda zz: abs(zz - z))
            return self.coefficients[(i, nearest)]
        return float(self.fallback.coefficients[i])

    def predict_average(self, hd: np.ndarray, stable_zeros: np.ndarray) -> float:
        values = self.predict_cycle(hd, stable_zeros)
        return float(values.mean()) if values.size else 0.0

    def average_from_joint(self, joint: np.ndarray) -> float:
        """Average charge given a joint (Hd, stable-zeros) pmf.

        The analytic counterpart of Section 6.3 for the *enhanced* model:
        ``P_avg = Σ_{i,k} p(Hd = i, zeros = k) · p_{i,k}`` with the usual
        nearest-subclass/basic fallback for unseen classes.  Support beyond
        the model's bit width (from width-clipped composition) folds onto
        the nearest valid class.
        """
        joint = np.asarray(joint, dtype=np.float64)
        total = 0.0
        max_index = self.width
        for i in range(joint.shape[0]):
            row = joint[i]
            nz = np.nonzero(row > 0)[0]
            if len(nz) == 0:
                continue
            hd_value = min(i, max_index)
            for k in nz:
                zeros = min(int(k), max_index - hd_value)
                total += row[k] * self._lookup(
                    hd_value, zeros // self.cluster_size
                )
        return float(total)

    # ------------------------------------------------------------------
    def coefficient_curve(self, zero_bucket: int) -> np.ndarray:
        """``p_i`` versus Hd for one fixed zero bucket (paper Fig. 2 curves).

        Entries are NaN where the subclass was never observed.
        """
        curve = np.full(self.width + 1, np.nan)
        for (i, z), p in self.coefficients.items():
            if z == zero_bucket:
                curve[i] = p
        curve[0] = 0.0
        return curve

    def max_zero_bucket(self, hd_value: int) -> int:
        """Largest possible zero bucket for a given Hd class."""
        return (self.width - hd_value) // self.cluster_size

    @property
    def n_parameters(self) -> int:
        """Number of distinct fitted subclass coefficients."""
        return len(self.coefficients)

    @property
    def n_parameters_full(self) -> int:
        """Theoretical subclass count ``(m² + m)/2 + m + 1`` at cluster 1.

        The paper's ``M = (m² + m)/2`` counts classes ``E_{i,z}`` for
        ``i = 1..m``; with clustering the count shrinks accordingly.
        """
        total = 0
        for i in range(1, self.width + 1):
            total += (self.width - i) // self.cluster_size + 1
        return total

    @property
    def total_average_deviation(self) -> float:
        """Sample-weighted mean subclass deviation (compare to basic ε)."""
        num = 0.0
        den = 0
        for key, eps in self.deviations.items():
            n = self.counts[key]
            num += eps * n
            den += n
        return num / den if den else float("nan")
