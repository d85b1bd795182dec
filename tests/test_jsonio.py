"""Canonical JSON: exact bytes for numpy payloads, and what it refuses;
the integer-only .npy sidecars."""

from dataclasses import dataclass

import numpy as np
import pytest

from agendascope.jsonio import dumps_canonical, save_sidecar


@dataclass(frozen=True)
class Point:
    values: np.ndarray
    pairs: list[tuple[str, float]]


def test_nested_numpy_payload_bytes():
    payload = {
        "z": np.array([[1.5, -2.0], [0.1, 3e-7]]),
        "f32": np.float32(0.1),
        "i64": np.int64(-7),
        "flag": np.bool_(True),
        "pair": (1, "x", None),
        "nested": [[np.float64(0.1), np.float64(1e-300)], [np.float64(2.5e20)]],
        "naïve": {"b": [], "a": "é"},
        "points": [Point(values=np.array([0.5, np.float64(2.0)]),
                         pairs=[("b", np.float64(0.25)), ("a", 1.0)])],
    }
    assert dumps_canonical(payload) == (
        '{"f32":0.10000000149011612,"flag":true,"i64":-7,'
        '"naïve":{"a":"é","b":[]},'
        '"nested":[[0.1,1e-300],[2.5e+20]],"pair":[1,"x",null],'
        '"points":[{"pairs":[["b",0.25],["a",1.0]],"values":[0.5,2.0]}],'
        '"z":[[1.5,-2.0],[0.1,3e-07]]}\n')


def test_nan_float64_rejected():
    with pytest.raises(ValueError):
        dumps_canonical({"x": [np.float64("nan")]})


def test_arbitrary_object_rejected():
    with pytest.raises(TypeError):
        dumps_canonical({"x": object()})


def test_dataclass_class_rejected():
    with pytest.raises(TypeError):
        dumps_canonical({"x": Point})


def test_float_sidecar_rejected(tmp_path):
    """A sidecar holds integers: a float array would be narrowed."""
    with pytest.raises(TypeError, match="must hold integers"):
        save_sidecar(tmp_path / "a.json", "x", np.zeros(3))
    assert not any(tmp_path.iterdir())
