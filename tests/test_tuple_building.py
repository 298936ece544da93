"""Tuples and star-arguments under ``src/bcalc`` are built from lists, never from lazy iterators.

CPython 3.11's ``tuple(<generator>)``, and ``f(*<generator>)``, which builds
its argument tuple the same way (``PySequence_Tuple``), first takes a
tuple of the guessed length 10 and then resizes it in place to the real
length.  Freed, it goes onto the free list of its real size, though it was
not taken from that list; so the size-2..20 lists only fill, to their cap
of 2,000, and pin pymalloc arenas.  Over 60 in-process passes of
perfbench's symbolic workload at seed 21 this grew RSS by 4.2 MB, 3.1 MB
of it free tuples, with no live object growing.  Built from a list
(``tuple([...])``, ``f(*[...])``), a tuple is allocated at its exact size,
and the same 60 passes grow RSS by under 1 MB (``scripts/rss_passes.py``).

A lazy iterator here is a generator expression or a call of ``map``,
``filter``, ``zip``, ``enumerate`` or anything in ``itertools``: none of
them reports a length.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bcalc"
LAZY_BUILTINS = {"map", "filter", "zip", "enumerate"}


def is_lazy(node: ast.AST) -> bool:
    if isinstance(node, ast.GeneratorExp):
        return True
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in LAZY_BUILTINS
    return isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "itertools"


def lazy_tuple_sites(source: str, filename: str = "<source>"):
    """``file:line: what`` for each tuple() of, or call starred with, a lazy iterator."""
    sites = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "tuple" and node.args and is_lazy(node.args[0]):
            sites.append((node.lineno, "tuple() of a lazy iterator"))
        for arg in node.args:
            if isinstance(arg, ast.Starred) and is_lazy(arg.value):
                sites.append((node.lineno, "call starred with a lazy iterator"))
    return [f"{filename}:{line}: {what}" for line, what in sorted(sites)]


@pytest.mark.parametrize("source", [
    "tuple(x for x in y)",
    "tuple(map(f, y))",
    "tuple(filter(None, y))",
    "tuple(zip(a, b))",
    "tuple(enumerate(y))",
    "tuple(itertools.chain(a, b))",
    "math.gcd(*(x for x in y))",
    "f(a, *map(g, y))",
])
def test_the_check_finds_each_lazy_form(source):
    assert len(lazy_tuple_sites(source)) == 1


@pytest.mark.parametrize("source", [
    "tuple([x for x in y])",
    "tuple(sorted(y))",
    "tuple(y)",
    "math.gcd(*[x for x in y])",
    "itertools.product(*[s for s in y])",
    "sum(x for x in y)",
])
def test_the_check_passes_list_built_forms(source):
    assert lazy_tuple_sites(source) == []


def test_no_tuple_under_src_is_built_from_a_lazy_iterator():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    sites = [s for p in paths for s in lazy_tuple_sites(p.read_text(), str(p.relative_to(SRC)))]
    assert sites == []
