"""Print one digest per seed over every output of perfbench's symbolic workload.

For each seed, builds ``perfbench.workloads.symbolic_ops(seed)``, calls every
op in order and prints the seed and one SHA-256 over the repr of each
outcome: the returned value, or the type and message of what it raised.
Two trees whose digests agree on a seed produce the same bytes for all of
that seed's ops, so a change meant to keep every output can be checked
against its parent with ``--root``.  The reprs of ``frozenset`` values
depend on string hashing, so the script re-executes itself with
``PYTHONHASHSEED=0`` when that is not already set.  It reads ``perfbench/``
and ``src/`` of the tree and writes nothing.

Usage: ``python3 scripts/op_digest.py [--root DIR] SEEDS...``; ``--root``
defaults to the repository that holds this script.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

HASH_SEED = "0"


def digest(seed: int) -> str:
    from workloads import symbolic_ops

    ops, _ = symbolic_ops(seed)
    h = hashlib.sha256()
    for op in ops:
        try:
            outcome = ("ok", op.fn())
        except Exception as exc:
            outcome = ("raised", type(exc).__name__, str(exc))
        h.update(repr((op.name, outcome)).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="the tree whose perfbench/ and src/ are run")
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    for seed in args.seeds:
        print(seed, digest(seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
