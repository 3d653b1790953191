"""Command line: ``simdiff cohomology --space rp2 --degree 2 --coeffs Z``.

Prints the group presentation as JSON.  Fixture parameters are passed as
``--param name=value`` (for example ``--space circle --param n=5``).  Bad
input -- an unknown space, parameter, degree or coefficient string -- exits
with status 2 and a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .cochains import parse_coefficients
from .cohomology import cohomology
from .complexes import build_standard


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simdiff", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    coh = commands.add_parser("cohomology", help="H^n(X; A) of a standard fixture")
    coh.add_argument("--space", required=True, help="pt, delta_k, circle, sphere2, torus, rp2")
    coh.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                     help="fixture parameter, repeatable")
    coh.add_argument("--degree", required=True, type=int)
    coh.add_argument("--coeffs", default="Z", help="Z or Q")
    return parser


def _params(items: Sequence[str]) -> dict[str, str]:
    params = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"parameter {item!r} is not NAME=VALUE")
        params[name] = value
    return params


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.degree < 0:
            raise ValueError(f"degree must be >= 0, got {args.degree}")
        coeffs = parse_coefficients(args.coeffs)
        X = build_standard(args.space, **_params(args.param))
        group = cohomology(X, args.degree, coeffs)
    except ValueError as e:
        print("simdiff: error: " + " ".join(str(e).split()), file=sys.stderr)
        return 2
    print(json.dumps(group.presentation.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
