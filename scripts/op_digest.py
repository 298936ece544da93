"""Print one digest per seed over every output of a perfbench workload.

For each seed, builds ``perfbench.workloads.symbolic_ops(seed)`` (or
``oracle_ops(seed)`` with ``--workload oracle``), calls every op in order
and prints the seed and one SHA-256 over each outcome: the returned value,
or the type and message of what it raised.  An array's repr rounds and
elides, so an outcome is hashed part by part: an ndarray by its dtype,
shape and bytes, a tuple, list, dict or record by its type and parts,
anything else by its repr.  Two trees whose digests agree on a seed
produce the same bytes for all of that seed's ops, so a change meant to
keep every output can be checked against its parent with ``--root``.  The reprs of
``frozenset`` values depend on string hashing, so the script re-executes
itself with ``PYTHONHASHSEED=0`` when that is not already set.  It reads
``perfbench/`` and ``src/`` of the tree and writes nothing.

Usage: ``python3 scripts/op_digest.py [--root DIR] [--workload symbolic|oracle]
SEEDS...``; ``--root`` defaults to the repository that holds this script.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

HASH_SEED = "0"


def feed(h, value) -> None:
    """Hash value into h by its bits: arrays by dtype, shape and bytes."""
    import numpy as np

    if isinstance(value, np.ndarray):
        h.update(f"ndarray {value.dtype.str} {value.shape} ".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        h.update(b"dict(")
        for key, item in value.items():
            h.update(repr(key).encode())
            feed(h, item)
        h.update(b")")
    elif isinstance(value, (tuple, list)) or hasattr(value, "_values"):
        h.update(f"{type(value).__qualname__}(".encode())
        for item in (value._values() if hasattr(value, "_values") else value):
            feed(h, item)
            h.update(b",")
        h.update(b")")
    else:
        h.update(repr(value).encode())


def digest(seed: int, workload: str) -> str:
    import workloads

    ops, _ = getattr(workloads, f"{workload}_ops")(seed)
    h = hashlib.sha256()
    for op in ops:
        try:
            outcome = ("ok", op.fn())
        except Exception as exc:
            outcome = ("raised", type(exc).__name__, str(exc))
        feed(h, (op.name, outcome))
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the tree whose perfbench/ and src/ are run")
    parser.add_argument("--workload", choices=("symbolic", "oracle"), default="symbolic")
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    for seed in args.seeds:
        print(seed, digest(seed, args.workload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
