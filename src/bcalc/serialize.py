"""JSON schema dispatch for object files.

Every value type a subcommand reads carries its own
``to_jsonable``/``from_jsonable`` (a model kernel is only written), and a
scalar inside one is read by ``ComplexRational.from_jsonable``; this module
adds schema sniffing so CLI arguments can be plain files of any supported
kind.  It is also the one place where decoded JSON that cannot be read
becomes a ``SchemaError``: each reader passes fields as written to its
constructor, and whatever the reader or the constructor raises is reported
here.  ``indexsets``, ``geometry`` and ``boperators`` are each imported
only in the branch that reads one of their schemas, so reading a b-map
loads no index-set layer and reading an index set loads neither of the
others.
"""
from __future__ import annotations

import json
from pathlib import Path

from .errors import SchemaError


def parse_object(data):
    """Detect the schema of a decoded JSON object and build the value."""
    try:
        if not isinstance(data, dict):
            raise SchemaError(f"cannot interpret {type(data).__name__} as a known object")
        if "generators" in data:
            from .indexsets import IndexSet
            return IndexSet.from_jsonable(data)
        if "assignment" in data:
            from .indexsets import IndexFamily
            return IndexFamily.from_jsonable(data)
        if "e" in data and "source" in data:
            from .geometry import BMapDescriptor
            return BMapDescriptor.from_jsonable(data)
        if "bhs" in data:
            from .geometry import FaceLattice
            return FaceLattice.from_jsonable(data)
        if "coeffs" in data:
            from .boperators import BDiffOp
            return BDiffOp.from_jsonable(data)
        if "E_lb" in data:
            from .boperators import FullCalcDescriptor
            return FullCalcDescriptor.from_jsonable(data)
        if "entries" in data:  # a raw entry list, as ``indexset complete`` reads it
            from .indexsets import IndexEntry
            entries = data["entries"]
            if not isinstance(entries, list):
                raise SchemaError(f"an entry list must be a list, got {entries!r}")
            return tuple([IndexEntry.from_jsonable(e) for e in entries])
        raise SchemaError(f"unrecognized object with keys {sorted(data)}")
    except SchemaError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError, ArithmeticError) as exc:
        raise SchemaError(f"unreadable object ({type(exc).__name__}: {exc})") from exc


def load_object(path):
    path = Path(path)
    try:
        return parse_object(json.loads(path.read_text()))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_typed(path, kind: str):
    """The object in ``path``, which must be of the class named ``kind``."""
    obj = load_object(path)
    if type(obj).__name__ != kind:
        raise SchemaError(f"{path}: expected {kind}, found {type(obj).__name__}")
    return obj
