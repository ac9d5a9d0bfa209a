#!/usr/bin/env python3
"""Scan the two-momentum trial-state quotient for the squared-Laplacian model.

Prints the Rayleigh quotient of u_n = f_n(0) + eps^xi f_n(eps^xi) next to the
conjectured -(1/6) eps^(1+2xi) threshold. The quotient comes out positive.
The trial state uses the constant coupling q = 1, so the operator has period
3, and a period-3 potential cannot couple theta = 0 with theta = eps^xi: what
is left is the kinetic energy of the eps^xi copy, and the sharp window cut
adds about eps^(1+2xi)/3 more. That is why the threshold comparison in the
verification suite is red; this script makes the numbers easy to inspect.
"""

import argparse
import csv
import sys

from bandedge.verification import quartic_required_n, quartic_trial_energy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xi", type=float, default=0.3)
    parser.add_argument("--eps", default="1e-2,3e-3,1e-3")
    parser.add_argument("--n", type=int, default=None, help="window size; adaptive when omitted")
    args = parser.parse_args()

    writer = csv.writer(sys.stdout)
    writer.writerow(["epsilon", "n", "value", "threshold", "value_over_scale"])
    for epsilon in (float(x) for x in args.eps.split(",")):
        n = args.n if args.n is not None else quartic_required_n(epsilon, args.xi)
        value = quartic_trial_energy(epsilon, args.xi, n)
        scale = epsilon ** (1.0 + 2.0 * args.xi)
        ratio = value / scale if scale else float("nan")  # at eps = 0 there is no scale
        writer.writerow([repr(epsilon), n, repr(value), repr(-scale / 6.0), repr(ratio)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
