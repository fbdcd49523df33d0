#!/usr/bin/env python3
"""Scan principal congruence levels and compare the certified Betti lower
bound |L| against the index raised to n(2n+1)/(4n^2-1).

The ratio column stays within fixed positive bounds as the level grows,
which is what makes |L| an asymptotic lower bound for total Betti numbers
in terms of the index; this script lets one watch that happen
numerically."""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quatlef.errors import QuatlefError
from quatlef.lefschetz import (
    LefschetzInput,
    betti_growth_exponent,
    betti_lower_bound,
    check_torsion_necessary,
    congruence_index,
)
from quatlef.numberfield import TotallyRealField, ideal_from_integer, split_prime
from quatlef.quaternion import QuaternionAlgebra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--ram", default="", help="ramified primes, comma list")
    parser.add_argument("--max-level", type=int, default=40)
    args = parser.parse_args()
    try:
        lines = _scan(args)
    except (QuatlefError, ValueError) as exc:
        parser.error(str(exc))
    print("\n".join(lines))
    return 0


def _scan(args) -> list[str]:
    field = TotallyRealField.rationals()
    primes = tuple(
        split_prime(field, int(p))[0] for p in args.ram.split(",") if p
    )
    algebra = QuaternionAlgebra(field, primes, 0)
    exponent = betti_growth_exponent(args.n)
    lines = [f"# n={args.n}, exponent n(2n+1)/(4n^2-1) = {exponent}",
             "level\t|L|\tindex\t|L| / index^exponent"]
    for n_level in range(3, args.max_level + 1):
        level = ideal_from_integer(field, n_level)
        if not check_torsion_necessary(level):
            continue
        inp = LefschetzInput(
            field=field, algebra=algebra, n=args.n, level=level, trace_w=Fraction(1)
        )
        bound = betti_lower_bound(inp)
        index = congruence_index(algebra, args.n, level)
        ratio = float(bound) / float(index) ** float(exponent)
        lines.append(f"{n_level}\t{bound}\t{index}\t{ratio:.6f}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
