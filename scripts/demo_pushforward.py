#!/usr/bin/env python3
"""Worked example: fiber-integrate sqrt(x^2 + y^2) over y in (0, 1] and
confront the symbolic index-set prediction with a quadrature fit.

The symbolic route: lift the integrand to the corner blow-up (it becomes
a product of a front-face defining function and boundary-smooth factors),
convert to b-density bookkeeping, push forward to the half-line, undo the
density shift.  Prediction: integer powers, with the first logarithm at
x^2 and coefficient -1/2 of x^2 log x.
"""
import argparse
import csv
import math
import sys

import numpy as np

from bcalc import geometry as geo
from bcalc import numeric as num
from bcalc import transport
from bcalc.indexsets import SMOOTH, IndexFamily, IndexSet


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--csv", default=None, help="dump samples and fit to a CSV file")
    args = ap.parse_args()

    bd = geo.x2b_blowdown()
    one = IndexSet.from_entries([(1, 0)])
    xy = transport.pull_back_family(
        bd, IndexFamily.of({"Hx": one, "Hy": one}, bd.target)
    )
    integrand_sets = IndexFamily.of(
        {"lb": SMOOTH, "ff": one, "rb": SMOOTH}, bd.source
    )
    coeff_sets = xy.sum_with(integrand_sets)
    pushed = transport.push_forward_halfline(geo.halfline_projection(1), coeff_sets)
    predicted = pushed.result.shift(-1)
    print("symbolic prediction (generators):", predicted)

    u = num.SampledFunction2D(lambda x, y: math.hypot(x, y), support=1.0)
    grid = num.geometric_grid(0.3, 0.9, 80)
    samples = num.numeric_pushforward(u, num.QuadratureSpec(1e-12, 1e-12, 300), grid)
    log_set = SMOOTH.extended_union(SMOOTH)
    fit = num.fit_expansion(grid, samples.values, log_set, 8)
    report = num.compare_with_prediction(fit, predicted, 8)

    print(f"fitted coefficient of x^2 log x: {fit.coeff_log_x(2, 1):+.8f} (target -0.5)")
    print(f"fit residual: {fit.fit_residual:.3g}")
    print(f"fitted terms contained in prediction: {report['contained']}")
    if report["extra"]:
        print("unexpected terms:", report["extra"])

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "integral", "fit"])
            logs = np.log(1.0 / grid)
            model = np.zeros_like(grid)
            for z, p, c in fit.terms:
                model += c * grid ** float(z) * logs ** p
            for row in zip(grid, samples.values, model):
                writer.writerow([f"{v:.12g}" for v in row])
        print(f"wrote {args.csv}")
    return 0 if report["contained"] else 1


if __name__ == "__main__":
    sys.exit(main())
