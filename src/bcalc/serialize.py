"""JSON schema dispatch for object files.

Every value type carries its own ``to_jsonable``/``from_jsonable``, and a
scalar inside one is read by ``ComplexRational.from_jsonable``; this module
adds schema sniffing so CLI arguments can be plain files of any supported
kind.
"""
from __future__ import annotations

import json
from pathlib import Path

from .boperators import BDiffOp, FullCalcDescriptor, ModelKernel
from .errors import SchemaError
from .geometry import BMapDescriptor, FaceLattice
from .indexsets import IndexEntry, IndexFamily, IndexSet


def parse_object(data):
    """Detect the schema of a decoded JSON object and build the value."""
    if isinstance(data, list):
        return _parse_entry_list(data)
    if not isinstance(data, dict):
        raise SchemaError(f"cannot interpret {type(data).__name__} as a known object")
    if "generators" in data:
        return IndexSet.from_jsonable(data)
    if "assignment" in data:
        return IndexFamily.from_jsonable(data)
    if "e" in data and "source" in data:
        return BMapDescriptor.from_jsonable(data)
    if "bhs" in data:
        return FaceLattice.from_jsonable(data)
    if "coeffs" in data:
        return BDiffOp.from_jsonable(data)
    if "E_lb" in data:
        return FullCalcDescriptor.from_jsonable(data)
    terms = data.get("terms")
    if isinstance(terms, list) and (not terms or isinstance(terms[0], dict) and "side" in terms[0]):
        return ModelKernel.from_jsonable(data)
    if "entries" in data:
        return _parse_entry_list(data["entries"])
    raise SchemaError(f"unrecognized object with keys {sorted(data)}")


def _parse_entry_list(items):
    """Entries as objects ``{"re", "im"?, "p"}`` or lists ``[z, p]``/``[re, im, p]``."""
    if not isinstance(items, list):
        raise SchemaError(f"an entry list must be a list, got {items!r}")
    entries = []
    for item in items:
        if isinstance(item, list) and len(item) in (2, 3):
            item = {"re": item[0], "im": item[1] if len(item) == 3 else 0, "p": item[-1]}
        entries.append(IndexEntry.from_jsonable(item))
    return tuple(entries)


def load_object(path):
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    return parse_object(data)


def load_typed(path, kind):
    obj = load_object(path)
    if not isinstance(obj, kind):
        raise SchemaError(
            f"{path}: expected {kind.__name__}, found {type(obj).__name__}"
        )
    return obj
