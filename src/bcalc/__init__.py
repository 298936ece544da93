"""Symbolic-numeric bookkeeping for boundary asymptotics.

Exact index-set algebra, corner blow-up combinatorics, b-map exponent
matrices, index transport under pull-back and push-forward, and the
half-line operator calculus (boundary spectrum, weighted model inverses,
parametrix index bookkeeping), with every symbolic prediction cross-checked
against brute-force quadrature.

The package root exports nothing: import the submodules, e.g.
``from bcalc import indexsets``.  Only quadrature (``numeric._raw_quad``)
loads SciPy.
"""
