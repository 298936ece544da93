"""No code under ``src/bcalc`` calls BLAS or LAPACK.

NumPy hands matrix products (``@``, ``dot``, ``matmul``, ``einsum``,
``tensordot``, ``inner``, ``vdot``) to BLAS and ``numpy.linalg`` to
LAPACK; ``polyfit`` and ``roots`` call LAPACK too.  The first such call in
a process makes OpenBLAS set up its workspace.  In perfbench's oracle
workload at seed 21 (``scripts/rss_passes.py --workload oracle --seed 21
--passes 3``), ``fit_expansion``'s first pass raised RSS by 1.22 MB while it
factored by ``np.linalg.qr`` and ``np.linalg.cond``, and by 0.20 MB once it
used ufuncs alone.  Standalone, after ``numpy`` and ``scipy.integrate`` are
loaded, the first ``svd`` or ``cond`` call adds 0.96-1.03 MB and the first
``qr`` 0.65-0.71 MB, with one OpenBLAS thread or several.  So bcalc builds
its products from elementwise ufuncs and ``sum``.

The check refuses the ``@`` operator, any ``np.``/``numpy.`` attribute
named in ``REFUSED``, any ``.dot(`` call, and any import of
``numpy.linalg`` or ``scipy.linalg``.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bcalc"
NUMPY = {"np", "numpy"}
REFUSED = {"linalg", "dot", "matmul", "einsum", "tensordot", "inner", "vdot", "polyfit", "roots",
           "polynomial"}
LINALG = {"numpy.linalg", "scipy.linalg"}


def blas_sites(source: str, filename: str = "<source>"):
    """``file:line: what`` for each use of BLAS or LAPACK the module docstring names."""
    sites = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            sites.append((node.lineno, "the @ operator"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in NUMPY and node.attr in REFUSED:
                sites.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "dot" and not (isinstance(node.func.value, ast.Name)
                                                and node.func.value.id in NUMPY):
                sites.append((node.lineno, "a .dot() call"))
        elif isinstance(node, ast.Import):
            sites += [(node.lineno, f"import {a.name}") for a in node.names
                      if any(a.name == m or a.name.startswith(m + ".") for m in LINALG)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = {f"{node.module}.{a.name}" for a in node.names} | {node.module}
            if any(n == m or n.startswith(m + ".") for n in names for m in LINALG):
                sites.append((node.lineno, f"from {node.module} import"))
    return [f"{filename}:{line}: {what}" for line, what in sorted(sites)]


@pytest.mark.parametrize("source", [
    "c = a @ b",
    "a @= b",
    "q, r = np.linalg.qr(a)",
    "numpy.linalg.cond(a)",
    "np.dot(a, b)",
    "a.dot(b)",
    "np.matmul(a, b)",
    "np.einsum('ij,j', a, b)",
    "np.tensordot(a, b, 1)",
    "np.inner(a, b)",
    "np.vdot(a, b)",
    "np.polyfit(t, y, 1)",
    "np.roots(c)",
    "np.polynomial.legendre.leggauss(8)",
    "import numpy.linalg",
    "import scipy.linalg as sla",
    "from numpy import linalg",
    "from numpy.linalg import qr",
    "from scipy import linalg",
    "from scipy.linalg import solve",
])
def test_the_check_finds_each_form(source):
    assert len(blas_sites(source)) == 1


@pytest.mark.parametrize("source", [
    "c = (a * b).sum(1)",
    "np.sum(a * b, axis=0)",
    "a.trace()",
    "np.outer_product = 1",
    "import numpy as np",
    "from scipy import integrate",
    "import scipy.integrate",
    "x.dotted",
])
def test_the_check_passes_ufunc_forms(source):
    assert blas_sites(source) == []


def test_no_module_under_src_calls_blas_or_lapack():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    sites = [s for p in paths for s in blas_sites(p.read_text(), str(p.relative_to(SRC)))]
    assert sites == []
