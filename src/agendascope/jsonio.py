"""Canonical JSON serialization, and the ``.npy`` sidecars of large arrays.

Every JSON artifact is written through :func:`dumps_canonical` so that
identical in-memory objects always produce byte-identical files: keys
sorted, no whitespace variance, floats via ``repr`` (shortest round-trip
decimal), UTF-8, trailing newline. An integer array too large for JSON is
written next to its artifact as one ``.npy`` file by :func:`save_sidecar`
and read back by :func:`load_sidecar`.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .errors import CorruptArtifact, MissingArtifact, NonFiniteArtifact


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
    """Write ``obj`` to ``path`` canonically; a NaN or infinite float in it
    raises :class:`NonFiniteArtifact` naming ``path``, before any write."""
    path = Path(path)
    try:  # the encoder's only ValueError for an artifact's tree of values
        text = dumps_canonical(obj)
    except ValueError as exc:
        raise NonFiniteArtifact(str(path), str(exc)) from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
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


def sidecar_path(artifact: str | Path, name: str) -> Path:
    """The ``.npy`` sidecar that holds array ``name`` of the artifact at
    ``artifact``: ``corpus.json``'s ``indices`` are in ``corpus.indices.npy``."""
    return Path(artifact).with_suffix(f".{name}.npy")


def save_sidecar(artifact: str | Path, name: str, array: np.ndarray) -> Path:
    """Write the integer ``array`` to the ``name`` sidecar of ``artifact``
    in the narrowest dtype that holds its values (unsigned when none is
    negative); returns its path. ``np.save`` writes the same bytes for the
    same array; ``np.savez`` is not used, because its zip entries carry
    timestamps."""
    if array.dtype.kind not in "iu":
        raise TypeError(f"sidecar {name} must hold integers, not {array.dtype}")
    lo, hi = (array.min(), array.max()) if array.size else (0, 0)
    array = array.astype(np.result_type(np.min_scalar_type(lo), np.min_scalar_type(hi)))
    path = sidecar_path(artifact, name)
    np.save(path, array, allow_pickle=False)
    return path


def load_sidecar(artifact: str | Path, name: str, stage: str) -> np.ndarray:
    """The 1-D integer array in the ``name`` sidecar of ``artifact``, which
    ``stage`` writes, as int64. An absent file raises
    :class:`MissingArtifact`; one that is not a whole ``.npy`` array
    (truncated, pickled, a zip), or holds any but a 1-D integer array,
    raises :class:`CorruptArtifact`."""
    path = sidecar_path(artifact, name)
    try:
        with open(path, "rb") as fh:
            array = np.lib.format.read_array(fh, allow_pickle=False)
    except FileNotFoundError:
        raise MissingArtifact(stage, str(path)) from None
    except (ValueError, EOFError) as exc:
        raise CorruptArtifact(str(path), str(exc)) from None
    if array.dtype.kind not in "iu":
        raise CorruptArtifact(str(path), f"{name} must be integers, not {array.dtype}")
    if array.ndim != 1:
        raise CorruptArtifact(str(path), f"{name} must be 1-D, not {array.ndim}-D")
    return array.astype(np.int64, copy=False)
