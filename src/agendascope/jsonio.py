"""Canonical JSON serialization.

Every artifact is written through :func:`dumps_canonical` so that identical
in-memory objects always produce byte-identical files: keys sorted, no
whitespace variance, floats via ``repr`` (shortest round-trip decimal),
UTF-8, trailing newline.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .errors import CorruptArtifact


def _numpy_default(obj: Any) -> Any:
    """``json.dumps`` fallback for the numpy types the encoder does not
    know (``np.float64`` needs none, being a ``float`` subclass), and for
    dataclass instances, which encode as ``{field name: value}``."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
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
    """The JSON value in ``path``; a file that is not UTF-8 JSON, such as
    a truncated one, raises :class:`CorruptArtifact`."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptArtifact(str(path), str(exc)) from None


@contextmanager
def malformed_as_corrupt(path: str | Path) -> Iterator[None]:
    """Raise :class:`CorruptArtifact` for ``path`` in place of the
    ``KeyError``, ``TypeError`` or ``ValueError`` that building an object
    from its JSON value raises, e.g. for a missing key."""
    try:
        yield
    except KeyError as exc:
        raise CorruptArtifact(str(path), f"missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CorruptArtifact(str(path), str(exc)) from None
