"""Command line: ``simdiff cohomology`` and ``simdiff cert``.

``simdiff cohomology --space rp2 --degree 2 --coeffs Z`` prints the group
presentation as JSON.  ``simdiff cert --space torus --degree 2 [--model
sheared] [--trials N] [--seed S]`` prints the exactness certificate of the
refined degree-n classes as report JSON and exits 1 when a check failed.
Fixture parameters are passed as ``--param name=value`` (for example
``--space circle --param n=5``).  ``--space A*B*...`` names the product of
any number of fixtures, each with its default parameters, folded from the
left: ``--space rp2*circle`` is the rp2xS1 fixture, and
``--space rp2*circle*circle`` is (rp2 x S1) x S1.  A product takes no
``--param``.  Bad input -- an unknown space or factor, an empty factor,
parameter, degree, model, trial count or coefficient string -- exits with
status 2 and a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import reduce
from typing import Sequence

from .character import CharacterModel
from .cochains import parse_coefficients
from .cohomology import cohomology
from .complexes import _FIXTURE_BUILDERS, SimplicialSet, build_standard, product
from .diffhat import exactness_certificate


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simdiff", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    coh = commands.add_parser("cohomology", help="H^n(X; A) of a standard fixture")
    cert = commands.add_parser("cert", help="exactness certificate of refined classes")
    for sub in (coh, cert):
        sub.add_argument("--space", required=True,
                         help=", ".join(_FIXTURE_BUILDERS) + ", or A*B*... for a product")
        sub.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                         help="fixture parameter, repeatable")
        sub.add_argument("--degree", required=True, type=int)
    coh.add_argument("--coeffs", default="Z",
                     help="Z (default) or Q, also spelled int, integers, rat, rationals")
    cert.add_argument("--model", default="plain", choices=CharacterModel.KINDS)
    cert.add_argument("--trials", default=3, type=int, help="rounds per claim")
    cert.add_argument("--seed", default=0, type=int)
    return parser


def _params(items: Sequence[str]) -> dict[str, str]:
    params = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"parameter {item!r} is not NAME=VALUE")
        params[name] = value
    return params


def _space(name: str, items: Sequence[str]) -> SimplicialSet:
    """The fixture called name, or when name is A*B*..., the product of
    its factors, folded from the left: (A x B) x ..."""
    first, *rest = name.split("*")
    if not rest:
        return build_standard(name, **_params(items))
    if items:
        raise ValueError(f"the product {name} takes no --param")
    return reduce(product, map(build_standard, rest), build_standard(first))


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.degree < 0:
            raise ValueError(f"degree must be >= 0, got {args.degree}")
        if args.command == "cert":
            if args.trials < 0:
                raise ValueError(f"trials must be >= 0, got {args.trials}")
            X = _space(args.space, args.param)
            out = exactness_certificate(X, args.degree, args.trials, args.seed,
                                        CharacterModel(args.model))
        else:
            coeffs = parse_coefficients(args.coeffs)
            X = _space(args.space, args.param)
            out = cohomology(X, args.degree, coeffs).presentation
    except ValueError as e:
        print("simdiff: error: " + " ".join(str(e).split()), file=sys.stderr)
        return 2
    print(json.dumps(out.to_json()))
    return 0 if getattr(out, "ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
