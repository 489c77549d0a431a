"""The argparse parser the CLI used before its table-driven parser, kept
verbatim as the reference the differential test compares against."""

import argparse

from repvar.finite_group import DEFAULT_BUDGET


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repvar",
        description="E-polynomials of surface-group representation varieties "
        "by exact transfer-matrix evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="compute the E-polynomial of one decorated surface"
    )
    _add_backend_options(compute)
    compute.add_argument("--genus", type=int, required=True, help="genus, >= 0")
    compute.add_argument(
        "--puncture",
        action="append",
        default=[],
        metavar="SPEC",
        help="add one puncture; finite backend: rep=INDEX or elements=i,j,k "
        "(rep= closes the class automatically); custom backend: a tube label "
        "from the datum file; repeatable, order preserved",
    )
    compute.add_argument(
        "--format",
        choices=["q-text", "uv-text", "json"],
        default="q-text",
        help="output form (default: q form when the result is diagonal)",
    )

    verify = sub.add_parser(
        "verify", help="cross-check a backend against its independent oracle"
    )
    _add_backend_options(verify)
    verify.add_argument("--max-genus", type=int, default=2)
    verify.add_argument(
        "--max-punctures", type=int, default=2, help="finite backend only"
    )
    verify.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="cap on the brute-force tuple count n^(2g) * prod |class| "
        "(the oracle folds prefix-product distributions, so its work is far "
        "smaller); a check over the cap is marked SKIP",
    )

    classes = sub.add_parser(
        "classes", help="print the conjugacy classes of a finite group"
    )
    classes.add_argument("--group", required=True, help="group JSON file")

    return parser


def _add_backend_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--backend", choices=["finite", "affc", "custom"], required=True
    )
    sub.add_argument("--group", help="group JSON file (finite backend)")
    sub.add_argument("--datum", help="datum JSON file (custom backend)")
