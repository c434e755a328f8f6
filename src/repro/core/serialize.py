"""JSON persistence for fitted models.

Characterization is the expensive step of the flow; these helpers let a
characterized model library be saved once and shipped with a design kit,
exactly how macro-model libraries are deployed in practice.

:func:`encode_array` / :func:`decode_array` are the one bit-exact
array codec for machine-read JSON (accumulator snapshots, the persistent
model cache); the human-readable library format above keeps number lists.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Any, Dict, Tuple, Union

import numpy as np

from .enhanced import EnhancedHdModel
from .hd_model import HdPowerModel
from .operand_model import OperandHdModel

PathLike = Union[str, Path]


def encode_array(array, dtype) -> str:
    """Base64 of ``array``'s raw little-endian bytes as ``dtype``.

    Every value round-trips bitwise through :func:`decode_array` — NaN,
    ``inf``, signed zeros and subnormals included — and decoding costs a
    fraction of parsing a decimal number list.
    """
    wire = np.dtype(dtype).newbyteorder("<")
    return base64.b64encode(
        np.ascontiguousarray(array, dtype=wire).tobytes()
    ).decode("ascii")


def decode_array(text: str, dtype, shape: Tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`encode_array`: a fresh, writable native array.

    Raises:
        ValueError: ``text`` is not strict base64 (``binascii.Error`` is a
            ``ValueError``) or does not hold exactly ``shape`` items.
    """
    wire = np.dtype(dtype).newbyteorder("<")
    raw = base64.b64decode(text, validate=True)
    return np.frombuffer(raw, dtype=wire).reshape(shape).astype(dtype)


def model_to_dict(model) -> Dict[str, Any]:
    """Serialize a fitted model to a JSON-compatible dict."""
    if isinstance(model, HdPowerModel):
        return {
            "type": "hd",
            "name": model.name,
            "width": model.width,
            "coefficients": model.coefficients.tolist(),
            "deviations": [
                None if np.isnan(d) else float(d) for d in model.deviations
            ],
            "counts": model.counts.tolist(),
            "standard_errors": [
                None if np.isnan(s) else float(s)
                for s in model.standard_errors
            ],
        }
    if isinstance(model, EnhancedHdModel):
        return {
            "type": "enhanced",
            "name": model.name,
            "width": model.width,
            "cluster_size": model.cluster_size,
            "coefficients": {
                f"{i},{z}": p for (i, z), p in model.coefficients.items()
            },
            "counts": {f"{i},{z}": c for (i, z), c in model.counts.items()},
            "deviations": {
                f"{i},{z}": d for (i, z), d in model.deviations.items()
            },
            "fallback": model_to_dict(model.fallback),
        }
    if isinstance(model, OperandHdModel):
        return {
            "type": "operand",
            "name": model.name,
            "operand_widths": list(model.operand_widths),
            "cluster_size": model.cluster_size,
            "coefficients": {
                ",".join(map(str, key)): p
                for key, p in model.coefficients.items()
            },
            "counts": {
                ",".join(map(str, key)): c
                for key, c in model.counts.items()
            },
            "fallback": model_to_dict(model.fallback),
        }
    raise TypeError(f"cannot serialize {type(model).__name__}")


def model_from_dict(data: Dict[str, Any]):
    """Reconstruct a model serialized by :func:`model_to_dict`."""
    kind = data.get("type")
    if kind == "hd":
        deviations = np.array(
            [np.nan if d is None else d for d in data["deviations"]]
        )
        stderr_raw = data.get("standard_errors")
        standard_errors = None
        if stderr_raw is not None:
            standard_errors = np.array(
                [np.nan if s is None else s for s in stderr_raw]
            )
        return HdPowerModel(
            name=data["name"],
            width=int(data["width"]),
            coefficients=np.asarray(data["coefficients"], dtype=np.float64),
            deviations=deviations,
            counts=np.asarray(data["counts"], dtype=np.int64),
            standard_errors=standard_errors,
        )
    if kind == "enhanced":
        def parse(key):
            i, z = key.split(",")
            return int(i), int(z)

        return EnhancedHdModel(
            name=data["name"],
            width=int(data["width"]),
            cluster_size=int(data["cluster_size"]),
            coefficients={parse(k): v for k, v in data["coefficients"].items()},
            counts={parse(k): v for k, v in data["counts"].items()},
            deviations={parse(k): v for k, v in data["deviations"].items()},
            fallback=model_from_dict(data["fallback"]),
        )
    if kind == "operand":
        def parse_tuple(key):
            return tuple(int(v) for v in key.split(","))

        return OperandHdModel(
            name=data["name"],
            operand_widths=tuple(data["operand_widths"]),
            cluster_size=int(data["cluster_size"]),
            coefficients={
                parse_tuple(k): v for k, v in data["coefficients"].items()
            },
            counts={parse_tuple(k): v for k, v in data["counts"].items()},
            fallback=model_from_dict(data["fallback"]),
        )
    raise ValueError(f"unknown model type {kind!r}")


def save_model(path: PathLike, model) -> None:
    """Write a model to a JSON file."""
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2))


def load_model(path: PathLike):
    """Load a model written by :func:`save_model`."""
    return model_from_dict(json.loads(Path(path).read_text()))
