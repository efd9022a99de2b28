"""Self-contained JSON files for designs.

A design file carries everything needed to re-verify it from scratch:

    {
      "kind": "df" | "ddf" | "pdf" | "ds" | "dds" | "dm" | "hdm",
      "group": {"factors": [{"cyclic": n} | {"field": {"p": p, "n": n,
                                                       "modulus": [c0..cn]}}]},
      "params": {...},                  # declared parameters, all integers
      "blocks": [[element, ...], ...]   # families and (d)ds kinds
      "rows":   [[element, ...], ...]   # dm / hdm kinds
      "subgroup": [element, ...]        # dds only
    }

An element is a list with one entry per group factor: a plain residue for a
cyclic factor, or the coefficient list (low degree first) for a field
factor.  Field moduli are embedded so the file never depends on how this
library chooses canonical irreducibles.

Serialization is deterministic — sorted keys, fixed indentation, trailing
newline — so identical designs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import (
    Element,
    FieldDescriptor,
    GroupDescriptor,
    check_cap,
    check_power_cap,
)
from .designs import DiffMatrix, Family

# kind -> the integer parameters its file declares, in the order DSParams,
# DDSParams and `verify --expect-params` take them (a family with blocks of
# several sizes declares the size list K instead of k)
PARAM_KEYS = {
    "df": ("v", "k", "lambda"),
    "ddf": ("v", "k", "lambda"),
    "pdf": ("v", "k", "lambda"),
    "ds": ("v", "k", "lambda"),
    "dds": ("m", "n", "k", "lambda1", "lambda2"),
    "dm": ("v", "k", "lambda"),
    "hdm": ("v", "k", "lambda"),
}
KINDS = tuple(PARAM_KEYS)

FAMILY_KINDS = ("df", "ddf", "pdf")
SET_KINDS = ("ds", "dds")
MATRIX_KINDS = ("dm", "hdm")


def group_to_obj(group: GroupDescriptor) -> dict:
    factors = []
    for fac in group.factors:
        if isinstance(fac, FieldDescriptor):
            factors.append(
                {"field": {"p": fac.p, "n": fac.n, "modulus": list(fac.modulus)}}
            )
        else:
            factors.append({"cyclic": fac})
    return {"factors": factors}


def _is_int(value) -> bool:
    """JSON integers only: a JSON boolean parses to a Python bool, which is
    an int subclass but never a valid count, order or coordinate."""
    return isinstance(value, int) and not isinstance(value, bool)


def group_from_obj(obj) -> GroupDescriptor:
    if not isinstance(obj, dict) or not isinstance(obj.get("factors"), list):
        raise ValueError("group must be an object with a 'factors' list")
    factors = []
    order = 1
    for i, fac in enumerate(obj["factors"]):
        if not isinstance(fac, dict) or len(fac) != 1:
            raise ValueError(f"group factor {i} must be a one-key object")
        if "cyclic" in fac:
            n = fac["cyclic"]
            if not _is_int(n) or n < 1:
                raise ValueError(f"group factor {i}: bad cyclic order {n!r}")
            order *= n
            check_cap(order)
            factors.append(n)
        elif "field" in fac:
            fd = fac["field"]
            if not isinstance(fd, dict):
                raise ValueError(f"group factor {i}: 'field' must be an object")
            try:
                p, n, modulus = fd["p"], fd["n"], fd["modulus"]
            except (KeyError, TypeError) as exc:
                raise ValueError(f"group factor {i}: field needs p, n, modulus") from exc
            if not (_is_int(p) and _is_int(n)):
                raise ValueError(f"group factor {i}: p and n must be integers")
            if not isinstance(modulus, list) or not all(_is_int(c) for c in modulus):
                raise ValueError(f"group factor {i}: modulus must be an integer list")
            # refuse an over-cap field before is_prime trial-divides p
            check_cap(order * p)
            check_power_cap(p, n)
            factors.append(FieldDescriptor(p, n, modulus))  # validates irreducibility
            order *= factors[-1].q
            check_cap(order)
        else:
            raise ValueError(f"group factor {i}: expected 'cyclic' or 'field'")
    return GroupDescriptor(factors)


def element_to_obj(group: GroupDescriptor, x: Element) -> list:
    group.validate_element(x)
    out = []
    for fac, coord in zip(group.factors, x):
        if isinstance(fac, FieldDescriptor):
            out.append(list(fac.coeffs(coord)))
        else:
            out.append(coord)
    return out


def element_from_obj(group: GroupDescriptor, obj) -> Element:
    if not isinstance(obj, list) or len(obj) != len(group.factors):
        raise ValueError(
            f"element must be a list of {len(group.factors)} coordinates, got {obj!r}"
        )
    coords = []
    for i, (fac, coord) in enumerate(zip(group.factors, obj)):
        if isinstance(fac, FieldDescriptor):
            if not isinstance(coord, list) or not all(_is_int(c) for c in coord):
                raise ValueError(
                    f"coordinate {i} must be a coefficient list for {fac!r}"
                )
            coords.append(fac.element(coord))  # range-checks the coefficients
        else:
            if not _is_int(coord) or not 0 <= coord < fac:
                raise ValueError(f"coordinate {i} out of range for Z_{fac}: {coord!r}")
            coords.append(coord)
    return tuple(coords)


@dataclass
class DesignFile:
    """A parsed design file: the declared kind and parameters plus the
    payload (blocks, or matrix rows, and for divisible sets the subgroup)."""

    kind: str
    group: GroupDescriptor
    params: dict
    blocks: tuple[tuple[Element, ...], ...] | None = None
    rows: tuple[tuple[Element, ...], ...] | None = None
    subgroup: tuple[Element, ...] | None = None

    def family(self) -> Family:
        if self.blocks is None:
            raise ValueError(f"design of kind {self.kind!r} has no blocks")
        return Family(self.group, self.blocks)

    def matrix(self) -> DiffMatrix:
        if self.rows is None:
            raise ValueError(f"design of kind {self.kind!r} has no matrix rows")
        return DiffMatrix(self.group, self.rows)


def _params_to_obj(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, list):
            if not all(_is_int(x) for x in value):
                raise ValueError(f"parameter {key} must be an integer list")
            out[key] = list(value)
        elif _is_int(value):
            out[key] = value
        else:
            raise ValueError(f"parameter {key} has unsupported value {value!r}")
    return out


def design_to_obj(design: DesignFile) -> dict:
    if design.kind not in KINDS:
        raise ValueError(f"unknown design kind {design.kind!r}")
    obj: dict = {
        "kind": design.kind,
        "group": group_to_obj(design.group),
        "params": _params_to_obj(design.params),
    }
    if design.kind in MATRIX_KINDS:
        if design.rows is None:
            raise ValueError(f"kind {design.kind!r} needs matrix rows")
        obj["rows"] = [
            [element_to_obj(design.group, x) for x in row] for row in design.rows
        ]
    else:
        if design.blocks is None:
            raise ValueError(f"kind {design.kind!r} needs blocks")
        obj["blocks"] = [
            [element_to_obj(design.group, x) for x in block]
            for block in design.blocks
        ]
    if design.kind == "dds":
        if design.subgroup is None:
            raise ValueError("kind 'dds' needs the forbidden subgroup")
        obj["subgroup"] = [element_to_obj(design.group, x) for x in design.subgroup]
    elif design.subgroup is not None:
        raise ValueError(f"kind {design.kind!r} must not carry a subgroup")
    return obj


def design_from_obj(obj) -> DesignFile:
    if not isinstance(obj, dict):
        raise ValueError("design file must contain a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown design kind {kind!r}")
    allowed = {"kind", "group", "params", "subgroup"}
    allowed.add("rows" if kind in MATRIX_KINDS else "blocks")
    extra = set(obj) - allowed
    if extra:
        raise ValueError(f"unexpected design file keys: {sorted(extra)}")
    group = group_from_obj(obj.get("group"))
    params = obj.get("params")
    if not isinstance(params, dict):
        raise ValueError("design file needs a 'params' object")
    params = _params_to_obj(params)
    blocks = rows = subgroup = None
    if kind in MATRIX_KINDS:
        raw = obj.get("rows")
        if not isinstance(raw, list) or not raw:
            raise ValueError(f"kind {kind!r} needs a nonempty 'rows' list")
        rows = tuple(
            tuple(element_from_obj(group, x) for x in _expect_list(row, "row"))
            for row in raw
        )
    else:
        raw = obj.get("blocks")
        if not isinstance(raw, list):
            raise ValueError(f"kind {kind!r} needs a 'blocks' list")
        blocks = tuple(
            tuple(element_from_obj(group, x) for x in _expect_list(block, "block"))
            for block in raw
        )
    if kind == "dds":
        raw = obj.get("subgroup")
        if not isinstance(raw, list) or not raw:
            raise ValueError("kind 'dds' needs a nonempty 'subgroup' list")
        subgroup = tuple(element_from_obj(group, x) for x in raw)
    elif "subgroup" in obj:
        raise ValueError(f"kind {kind!r} must not carry a subgroup")
    return DesignFile(kind, group, params, blocks, rows, subgroup)


def _expect_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"each {what} must be a list, got {value!r}")
    return value


def dumps_design(design: DesignFile) -> str:
    return json.dumps(design_to_obj(design), sort_keys=True, indent=2) + "\n"


def loads_design(text: str) -> DesignFile:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"design file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("design file is nested too deeply to parse") from exc
    return design_from_obj(obj)


def save_design(path, design: DesignFile) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_design(design))


def load_design(path) -> DesignFile:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_design(handle.read())
