"""JSON file format for r-matrices.

A file holds one r-matrix r = sum A_{ql}(d1, d2) q x l, read into and
written from an arity-2 conformal.ConfTensor; the format depends on the
algebras and polynomials alone, not on the checks in `ybe`.

Schema:

    {
      "algebra": "cur_sl2" | "vir",
      "parameters": ["alpha", ...],          # optional
      "entries": [
        {"left": "h", "right": "e", "coeff": "1 + d1^2"},
        ...
      ]
    }

"algebra" and "entries" are required at the top level, and "left",
"right" and "coeff" in each entry; an empty "entries" list is the zero
r-matrix.  No other key is read: a key the schema does not name, at the
top level or in an entry, is refused.  Entries
with the same (left, right) pair add.  Coefficients are expression
strings in d1, d2 and the declared parameters, or JSON integers;
parameters must be declared before use.
A coefficient's degree in each symbol is at most MAX_SLOT_DEGREE, and
so is every power and product on the way to it: the parser refuses one
above the limit before expanding it.  The checks expand powers of
d1 + d2, so an unbounded degree would run without end.
"""

from __future__ import annotations

import json
from typing import Optional, Union

from .conformal import ConfAlgebra, ConfTensor
from .exactpoly import ParseError, SymbolRegistry
from .liealg import sl2

ALGEBRAS = ("cur_sl2", "vir")
_FILE_KEYS = ("algebra", "parameters", "entries")
_FILE_REQUIRED = ("algebra", "entries")
_ENTRY_KEYS = ("left", "right", "coeff")
MAX_SLOT_DEGREE = 64
# The JSON names of the values a coefficient cannot be.
_JSON_TYPES = {dict: "an object", list: "an array", bool: "a boolean",
               float: "a decimal number", type(None): "null"}


class RMatFileError(ValueError):
    """Malformed r-matrix file."""


def make_algebra(name: str, reg: SymbolRegistry) -> ConfAlgebra:
    if name == "cur_sl2":
        return ConfAlgebra.cur(sl2(), reg)
    if name == "vir":
        return ConfAlgebra.vir(reg)
    raise RMatFileError(f"unknown algebra {name!r} (expected one of {ALGEBRAS})")


def loads(text: str) -> ConfTensor:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:
        # ValueError: also an integer literal longer than int() reads
        # (4300 digits); RecursionError: arrays or objects nested deeper
        # than the decoder's recursion limit
        raise RMatFileError(f"invalid JSON: {err}") from err
    return from_dict(data)


def refuse_unknown_keys(obj: dict, allowed: tuple, where: str, required: tuple = (),
                        name: Optional[str] = None) -> None:
    """Raise RMatFileError naming the first key of the JSON object `obj`
    outside `allowed`, or else the first key of `required` that `obj`
    lacks, as "`name` has no `key`" (`name` defaults to `where`).  A
    misspelt or lost key would otherwise read as an absent one: an entry
    with "coef" for "coeff", or a file without "entries", would load as
    the zero r-matrix."""
    for key in obj:
        if key not in allowed:
            raise RMatFileError(f"unknown key {key!r} in {where} "
                                f"(expected {', '.join(allowed)})")
    for key in required:
        if key not in obj:
            raise RMatFileError(f"{name or where} has no {key}")


def from_dict(data: dict) -> ConfTensor:
    reg = SymbolRegistry()
    if not isinstance(data, dict):
        raise RMatFileError("top level must be an object")
    refuse_unknown_keys(data, _FILE_KEYS, "the top level", _FILE_REQUIRED)
    alg = make_algebra(data["algebra"], reg)
    parameters = data.get("parameters", [])
    if not isinstance(parameters, list):
        raise RMatFileError("parameters must be a list of symbol names")
    allowed = {"d1", "d2"}
    for name in parameters:
        if not isinstance(name, str):
            raise RMatFileError(f"parameter name {name!r} is not a string")
        if name in ("d1", "d2", "d3", "lam", "mu", "x", "y", "z"):
            raise RMatFileError(f"parameter name {name!r} is reserved")
        try:
            reg.sym(name)
        except ValueError as err:
            raise RMatFileError(str(err)) from err
        allowed.add(name)
    items = data["entries"]
    if not isinstance(items, list):
        raise RMatFileError("entries must be a list of objects")
    entries = {}
    for item in items:
        if not isinstance(item, dict):
            raise RMatFileError(f"entry {item!r} is not an object")
        left, right = item.get("left", "?"), item.get("right", "?")
        refuse_unknown_keys(item, _ENTRY_KEYS, "an entry", _ENTRY_KEYS,
                            f"entry ({left}, {right})")
        if left not in alg.basis_names or right not in alg.basis_names:
            raise RMatFileError(
                f"unknown basis pair ({left!r}, {right!r}) for algebra {data['algebra']}"
            )
        coeff = item["coeff"]
        if isinstance(coeff, bool) or not isinstance(coeff, (str, int)):
            raise RMatFileError(f"entry ({left}, {right}): coeff must be a string "
                                f"or an integer, got "
                                f"{_JSON_TYPES.get(type(coeff), type(coeff).__name__)}")
        try:
            poly = reg.parse(str(coeff), max_degree=MAX_SLOT_DEGREE)
        except ParseError as err:
            raise RMatFileError(
                f"entry ({left}, {right}): {err}"
            ) from err
        used = {s.name for s in poly.symbols()}
        undeclared = used - allowed
        if undeclared:
            raise RMatFileError(
                f"entry ({left}, {right}) uses undeclared symbols {sorted(undeclared)}"
            )
        key = (left, right)
        entries[key] = entries.get(key, reg.zero()) + poly
    return ConfTensor(alg, 2, entries)


def load(path: str) -> ConfTensor:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise RMatFileError(f"not UTF-8 text: {err}") from err
    return loads(text)


def to_dict(r: ConfTensor, parameters: Union[list, tuple] = ()) -> dict:
    name = "cur_sl2" if r.alg.kind == "cur" else "vir"
    entries = [
        {"left": q, "right": l, "coeff": poly.to_string()}
        for (q, l), poly in sorted(r.entries.items())
    ]
    out = {"algebra": name, "entries": entries}
    if parameters:
        out["parameters"] = list(parameters)
    return out


def dump(r: ConfTensor, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(r), fh, indent=2, sort_keys=True)
        fh.write("\n")
