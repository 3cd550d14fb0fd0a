"""JSON file formats for models, kernels and reports.

All indices are 0-based.  A kernel file looks like

    {"m": 2, "n": 4, "entries": [{"set": [0, 1], "value": 0.5}, ...]}

and a model file is either {"probs": [p0, p1, ...]} or
{"homogeneous": p, "n": n}.  Orders and horizons must be JSON integers
and probabilities JSON numbers; set members and values follow the kernel
input rule (``kernels.checked_subset``, ``kernels.real_value``).  Nothing
is truncated, read from a string or taken from a boolean.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import DomainError, FormatError
from .kernels import Kernel, checked_subset, real_value
from .model import RademacherModel


def kernel_to_dict(kern: Kernel, provenance: dict | None = None) -> dict:
    out: dict[str, Any] = {
        "m": kern.order,
        "n": kern.horizon,
        "entries": [
            {"set": list(key), "value": val} for key, val in sorted(kern.coeffs.items())
        ],
    }
    if provenance:
        out["provenance"] = provenance
    return out


def _integer(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{field} must be a JSON integer, got {value!r}")
    return value


def _number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{field} must be a JSON number, got {value!r}")
    return float(value)


def kernel_from_dict(data: dict) -> Kernel:
    try:
        m = _integer(data["m"], "'m'")
        n = _integer(data["n"], "'n'")
        entries = data["entries"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"kernel record needs integer 'm', 'n' and 'entries': {exc}")
    coeffs = {}
    for i, entry in enumerate(entries):
        try:
            key, val = tuple(entry["set"]), entry["value"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"entry {i} is malformed: {exc}")
        try:
            key = checked_subset(key, m, n)
        except DomainError as exc:
            raise FormatError(f"entry {i} 'set': {exc}")
        try:
            val = real_value(key, val)
        except DomainError as exc:
            raise FormatError(f"entry {i} 'value': {exc}")
        if key in coeffs:
            raise FormatError(f"entry {i} repeats subset {list(key)}")
        coeffs[key] = val
    try:
        return Kernel._from_valid_keys(m, n, coeffs)
    except DomainError as exc:
        raise FormatError(f"kernel record invalid: {exc}")


def model_to_dict(model: RademacherModel) -> dict:
    probs = set(model.probs)
    if len(probs) == 1:
        return {"homogeneous": model.probs[0], "n": model.n}
    return {"probs": list(model.probs)}


def model_from_dict(data: dict) -> RademacherModel:
    if "probs" in data:
        try:
            return RademacherModel(tuple(_number(p, "'probs' entry") for p in data["probs"]))
        except Exception as exc:
            raise FormatError(f"model record invalid: {exc}")
    if "homogeneous" in data:
        try:
            p = _number(data["homogeneous"], "'homogeneous'")
            return RademacherModel.homogeneous(p, _integer(data["n"], "'n'"))
        except Exception as exc:
            raise FormatError(f"model record invalid: {exc}")
    raise FormatError("model record needs either 'probs' or 'homogeneous' + 'n'")


def load_json(path: str | Path) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise FormatError(f"{path}: {exc}")


def dump_json(data: Any, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_kernel(path: str | Path) -> Kernel:
    return kernel_from_dict(load_json(path))


def load_model(path: str | Path) -> RademacherModel:
    return model_from_dict(load_json(path))
