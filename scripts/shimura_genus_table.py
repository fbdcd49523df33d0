#!/usr/bin/env python3
"""Tabulate genus, first Betti number and cusp-form dimensions of the
compact quotient surfaces attached to a Fuchsian quaternion algebra over
Q, one row per principal congruence level."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quatlef.errors import QuatlefError
from quatlef.lefschetz import check_torsion_necessary, genus_fuchsian, modular_form_dim
from quatlef.numberfield import TotallyRealField, ideal_from_integer, split_prime
from quatlef.quaternion import QuaternionAlgebra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ram", default="2,3", help="ramified primes, comma list")
    parser.add_argument("--max-level", type=int, default=20)
    parser.add_argument("--weights", default="2,4,6", help="even cusp-form weights")
    args = parser.parse_args()
    try:
        lines = _table(args)
    except (QuatlefError, ValueError) as exc:
        parser.error(str(exc))
    print("\n".join(lines))
    return 0


def _table(args) -> list[str]:
    field = TotallyRealField.rationals()
    primes = tuple(split_prime(field, int(p))[0] for p in args.ram.split(","))
    algebra = QuaternionAlgebra(field, primes, 0)
    if not algebra.is_fuchsian():
        raise ValueError("that ramification set is not Fuchsian over Q")
    weights = [int(w) for w in args.weights.split(",")]

    header = ["level", "chi", "genus", "b1"] + [f"dim S_{k}" for k in weights]
    lines = ["\t".join(header)]
    for n_level in range(2, args.max_level + 1):
        level = ideal_from_integer(field, n_level)
        if not check_torsion_necessary(level):
            lines.append(f"{n_level}\t(torsion check failed, skipped)")
            continue
        report = genus_fuchsian(algebra, level)
        dims = [modular_form_dim(report.genus, k) for k in weights]
        row = [n_level, report.chi, report.genus, report.b1] + dims
        lines.append("\t".join(str(x) for x in row))
    return lines


if __name__ == "__main__":
    sys.exit(main())
