"""Command-line front end: compute invariants, verify a backend against
its independent oracle, and inspect conjugacy classes.

Exit codes are a stable contract: 0 success, 2 input validation failure,
3 datum inconsistency (non-exact normalization division), 4 verification
mismatch.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import Counter
from collections.abc import Sequence

from .affc import affc_closed_form, affc_datum, xk_values
from .finite_group import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    check_budget,
    class_datum,
    commutator_slot,
    conjugacy_classes,
    conjugacy_closure,
    fold_slot,
    load_group,
    puncture_slot,
)
from .poly import LaurentPoly, NonExactDivision, ONE
from .tqft import (
    GENUS_TUBE,
    IDENTITY_TUBE,
    PrefixFold,
    SurfaceSpec,
    UnknownPunctureLabel,
    dot,
    epoly_rep_variety,
    load_datum,
    mat_vec,
    normalize,
    puncture_tube,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVISION = 3
EXIT_VERIFY = 4

# UnknownPunctureLabel is a KeyError; every other input error is a ValueError.
_INPUT_ERRORS = (ValueError, UnknownPunctureLabel, OSError)


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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "compute": _cmd_compute,
        "verify": _cmd_verify,
        "classes": _cmd_classes,
    }[args.command]
    try:
        return handler(args)
    except NonExactDivision as exc:
        print(f"error: datum is inconsistent: {exc}", file=sys.stderr)
        return EXIT_DIVISION
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


# ----------------------------------------------------------------------
# compute
# ----------------------------------------------------------------------


def _parse_puncture_spec(spec: str) -> tuple[str, object]:
    if spec.startswith("rep="):
        return ("rep", [_element_index(spec, spec[len("rep="):])])
    if spec.startswith("elements="):
        tokens = [x for x in spec[len("elements="):].split(",") if x != ""]
        if not tokens:
            raise ValueError(f"empty element list in puncture spec {spec!r}")
        return ("elements", [_element_index(spec, x) for x in tokens])
    if "=" in spec:
        raise ValueError(f"unknown puncture spec {spec!r}; use rep=, elements= or a label")
    return ("label", spec)


def _element_index(spec: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(
            f"puncture spec {spec!r}: {token!r} is not an element index"
        ) from None


def _build_datum_and_spec(args) -> tuple:
    puncture_specs = [_parse_puncture_spec(s) for s in args.puncture]

    if args.backend == "finite":
        if not args.group:
            raise ValueError("--backend finite requires --group")
        group = load_group(args.group)
        subsets = {}
        labels = []
        for i, (text, (kind, value)) in enumerate(
            zip(args.puncture, puncture_specs), start=1
        ):
            if kind == "label":
                raise ValueError(
                    "finite backend punctures must use rep= or elements="
                )
            for x in value:
                if not 0 <= x < group.order:
                    raise ValueError(
                        f"puncture spec {text!r}: element index {x} is out of "
                        f"range for a group of order {group.order}"
                    )
            label = f"p{i}"
            subsets[label] = conjugacy_closure(group, value) if kind == "rep" else value
            labels.append(label)
        datum = class_datum(group, subsets)
        return datum, SurfaceSpec(args.genus, tuple(labels))

    if any(kind != "label" for kind, _ in puncture_specs):
        raise ValueError("rep= and elements= punctures require --backend finite")
    labels = tuple(value for _, value in puncture_specs)

    if args.backend == "affc":
        return affc_datum(), SurfaceSpec(args.genus, labels)

    if not args.datum:
        raise ValueError("--backend custom requires --datum")
    return load_datum(args.datum), SurfaceSpec(args.genus, labels)


def _format_poly(poly: LaurentPoly, fmt: str) -> str:
    if fmt == "uv-text":
        return poly.to_text(force_uv=True)
    if fmt == "json":
        return json.dumps(poly.to_json_terms())
    return poly.to_text()


def _cmd_compute(args) -> int:
    if args.genus < 0:
        raise ValueError("--genus must be >= 0")
    datum, spec = _build_datum_and_spec(args)
    result = epoly_rep_variety(datum, spec)
    print(_format_poly(result, args.format))
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


class _Report:
    def __init__(self):
        self.passed = 0
        self.failed = 0
        self.skipped = 0

    def record(self, description: str, status: str, detail: str | None = None) -> None:
        print(f"CHECK {description} ... {status}")
        if detail:
            print(f"  {detail}")
        if status == "PASS":
            self.passed += 1
        elif status == "SKIP":
            self.skipped += 1
        else:
            self.failed += 1

    def compare(self, description: str, engine, oracle: str, expected) -> None:
        """PASS if the engine's value equals the oracle's, else FAIL with
        both values as the counterexample."""
        if engine == expected:
            self.record(description, "PASS")
        else:
            self.record(
                description, "FAIL", f"counterexample: engine={engine} {oracle}={expected}"
            )

    def finish(self) -> int:
        print(
            f"SUMMARY: {self.passed} passed, {self.failed} failed, "
            f"{self.skipped} skipped"
        )
        return EXIT_OK if self.failed == 0 else EXIT_VERIFY


def _cmd_verify(args) -> int:
    if args.max_genus < 0:
        raise ValueError("--max-genus must be >= 0")
    if args.max_punctures < 0:
        raise ValueError("--max-punctures must be >= 0")
    if args.budget < 0:
        raise ValueError("--budget must be >= 0")
    report = _Report()
    if args.backend == "affc":
        _verify_affc(args, report)
    elif args.backend == "finite":
        _verify_finite(args, report)
    else:
        _verify_custom(args, report)
    return report.finish()


def _word_epoly(form):
    """The E-polynomial of a word over ``form`` (a ``fold_form``), its cap
    vector folded through the word's tubes by one ``PrefixFold``."""
    walk = PrefixFold(form.disc_in, lambda vec, tube: mat_vec(form.tube_matrix(tube), vec))
    return lambda word: normalize(form, dot(form.disc_out, walk(word)), len(word))


def _verify_affc(args, report: _Report) -> None:
    epoly = _word_epoly(affc_datum().fold_form)
    xk = xk_values()  # e(X_1), e(X_2), ...: two steps per genus
    for genus in range(1, max(args.max_genus, 1) + 1):
        engine = epoly((GENUS_TUBE,) * genus)
        report.compare(
            f"affc closed-form genus={genus}", engine, "closed-form", affc_closed_form(genus)
        )
        next(xk)
        recursion = next(xk)  # e(X_2g)
        report.compare(f"affc recursion genus={genus}", engine, "recursion", recursion)


def _verify_finite(args, report: _Report) -> None:
    """Check every (genus, puncture multiset) against the brute-force
    oracle, walking the specs as a prefix tree.

    Both sides fold the same word, genus^g then one puncture tube per
    class in the multiset, through a ``PrefixFold`` each: the engine a
    vector through the tube matrices, the oracle a distribution of
    partial products through one slot per tube.  A multiset over the
    budget is marked SKIP before any work for it.
    """
    if not args.group:
        raise ValueError("--backend finite requires --group")
    group = load_group(args.group)
    classes = conjugacy_classes(group)
    tubes = [puncture_tube(f"c{i}") for i in range(len(classes))]
    datum = class_datum(group, {tube.label: m for tube, m in zip(tubes, classes.members)})
    sizes = [len(members) for members in classes.members]
    # Oracle slots keyed by the engine's tubes, each built once: the
    # commutators on the first genus step.
    slots = {tube: puncture_slot(group, m) for tube, m in zip(tubes, classes.members)}

    def oracle_step(dist: Counter, tube) -> Counter:
        if tube not in slots:
            slots[tube] = commutator_slot(group)
        return fold_slot(group, dist, slots[tube])

    epoly = _word_epoly(datum.fold_form)
    oracle = PrefixFold(Counter({group.identity: 1}), oracle_step)
    for genus in range(args.max_genus + 1):
        for s in range(args.max_punctures + 1):
            for combo in itertools.combinations_with_replacement(range(len(classes)), s):
                desc = (
                    f"finite genus={genus} punctures="
                    f"[{', '.join(f'class {i}' for i in combo)}]"
                )
                try:
                    check_budget(group.order, genus, [sizes[i] for i in combo], args.budget)
                except BudgetExceeded as exc:
                    report.record(desc, "SKIP", str(exc))
                    continue
                word = (GENUS_TUBE,) * genus + tuple(tubes[i] for i in combo)
                try:
                    engine = epoly(word)
                except NonExactDivision as exc:
                    report.record(desc, "FAIL", f"counterexample: {exc}")
                    continue
                report.compare(desc, engine, "brute-force", oracle(word)[group.identity])


def _verify_custom(args, report: _Report) -> None:
    if not args.datum:
        raise ValueError("--backend custom requires --datum")
    form = load_datum(args.datum).fold_form
    epoly = _word_epoly(form)
    for genus in range(args.max_genus + 1):
        word = (GENUS_TUBE,) * genus
        desc = f"custom normalization genus={genus}"
        try:
            result = epoly(word)
        except NonExactDivision as exc:
            report.record(desc, "FAIL", f"counterexample: genus={genus}: {exc}")
            continue
        if genus == 0 and result != ONE:
            report.record(desc, "FAIL", f"counterexample: sphere value {result} != 1")
            continue
        report.record(desc, "PASS")
        if IDENTITY_TUBE in form.tubes:
            # The same word with one plain cylinder appended.
            desc = f"custom cylinder-insertion genus={genus}"
            try:
                padded = epoly(word + (IDENTITY_TUBE,))
            except NonExactDivision as exc:
                report.record(desc, "FAIL", f"counterexample: genus={genus}: {exc}")
                continue
            if padded == result:
                report.record(desc, "PASS")
            else:
                report.record(desc, "FAIL", f"counterexample: padded={padded} unpadded={result}")


# ----------------------------------------------------------------------
# classes
# ----------------------------------------------------------------------


def _cmd_classes(args) -> int:
    group = load_group(args.group)
    classes = conjugacy_classes(group)
    print(f"group of order {group.order} with {len(classes)} conjugacy classes")
    for i, members in enumerate(classes.members):
        print(
            f"class {i}: size {len(members)}, "
            f"centralizer {classes.centralizer_orders[i]}, "
            f"representative {members[0]}, "
            f"elements [{', '.join(str(m) for m in members)}]"
        )
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
