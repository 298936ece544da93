import ast
import inspect
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import example, given, settings

from bcalc import boperators as bop
from bcalc import rootfinder
from bcalc.rationals import ComplexRational as CR

SRC = Path(rootfinder.__file__).resolve().parent

# the root layer: every name rootfinder holds for polynomial_roots
ROOT_LAYER = ("_gmul", "_gadd", "_gsub", "_gquo", "_ggcd", "_primitive", "_gaussian", "_prem",
              "_pquo", "_gpow", "_pgcd", "_squarefree", "_CLUSTER_TOL", "Root", "_scaled_horner",
              "_vanishes_at", "_exact_ratio", "_refine", "_squarefree_roots", "_cluster_numeric",
              "_BITS_BUDGET", "_DEGREE_BITS_BUDGET", "polynomial_roots")


# -- the pseudo-remainder of the Sturm chain, against Euclid in Fractions -----


def _euclid_rem(p, q):
    rem = [Fraction(c) for c in p]
    while len(rem) >= len(q):
        c = rem.pop() / q[-1]
        for j, y in enumerate(q[:-1], len(rem) - len(q) + 1):
            rem[j] -= c * y
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _euclid_sturm(p, q):
    chain = [list(p), list(q)]
    while rem := _euclid_rem(chain[-2], chain[-1]):
        chain.append([-c for c in rem])
    return chain


# degree 1 to 8, zeros likely, so that the degree gaps inside a chain vary too
int_polys = st.lists(st.integers(-9, 9) | st.just(0), min_size=2, max_size=9).filter(
    lambda f: f[-1])


@settings(max_examples=200, deadline=None)
@example([0, 0, 0, 1], [1, -1])  # lc(q) < 0 and an even degree gap: lc(q)^3 < 0
@example([1, 0, 0, 0, 0, 2], [3, 1, 0, -2])
@example([2, 1], [0, 0, 0, -1])  # deg q beyond deg p + 1: the remainder is p itself
@example([5, 0, -1], [1, 0, 0, 0, 0, 0, 0, -3])
@given(int_polys, int_polys)
def test_sturm_members_are_positive_multiples_of_the_euclidean_ones(p, q):
    got, want = rootfinder.sturm_chain(p, q), _euclid_sturm(p, q)
    assert len(got) == len(want), (got, want)
    for f, g in zip(got, want):
        assert len(f) == len(g)
        ratio = f[-1] / g[-1]
        assert ratio > 0 and all(a == ratio * b for a, b in zip(f, g)), (f, g)


# -- layering: the root layer lives in rootfinder alone ------------------------


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text())


def _imports(tree):
    """(module, names) of each import, a relative one by its bare module name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.name, ()) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", tuple([a.name for a in node.names])


def test_boperators_holds_no_root_layer_and_imports_only_its_entry_points():
    defined = set()
    for node in _tree("boperators").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert not defined & set(ROOT_LAYER)
    assert all(hasattr(rootfinder, name) for name in ROOT_LAYER)
    assert [names for module, names in _imports(_tree("boperators"))
            if "rootfinder" in {p for m in (module, *names) for p in m.split(".")}] == [
        ("Root", "polynomial_roots")]


def test_rootfinder_loads_neither_the_calculus_nor_the_float_oracle():
    modules = {m for module, names in _imports(_tree("rootfinder")) for m in (module, *names)}
    assert not {m.split(".")[0] for m in modules} & {"boperators", "numeric", "numpy"}
    assert list(inspect.signature(rootfinder.aberth).parameters) == ["factor"]


def test_indicial_calls_the_root_finder_through_its_own_global(monkeypatch):
    # a span that wraps bop.polynomial_roots must see every indicial call
    assert bop.polynomial_roots is rootfinder.polynomial_roots and bop.Root is rootfinder.Root
    calls = []

    def spy(poly):
        calls.append(poly)
        return rootfinder.polynomial_roots(poly)

    monkeypatch.setattr(bop, "polynomial_roots", spy)
    ind = bop.indicial(bop.BDiffOp.from_lists([[-2], [0], [1]]))
    assert calls == [(CR.of(-2), CR.of(0), CR.of(1))] and len(ind.roots) == 2
