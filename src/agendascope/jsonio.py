"""Canonical JSON serialization.

Every artifact is written through :func:`dumps_canonical` so that identical
in-memory objects always produce byte-identical files: keys sorted, no
whitespace variance, floats via ``repr`` (shortest round-trip decimal),
UTF-8, trailing newline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np


def _numpy_default(obj: Any) -> Any:
    """``json.dumps`` fallback for the numpy types the encoder does not
    know; ``np.float64`` needs none, being a ``float`` subclass."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"), allow_nan=False,
                      default=_numpy_default) + "\n"


def write_json(path: str | Path, obj: Any) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    return path


def read_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))
