"""Command-line front end: compute invariants, verify a backend against
its independent oracle, and inspect conjugacy classes.

Each command declares its options in one table (``_COMMANDS``) of
argparse's own ``add_argument`` keywords, and the command line follows
argparse's rules: an option takes its value as ``--opt value`` or
``--opt=value``, any unique prefix names it, a repeated option keeps
its last value (``--puncture`` appends), a negative number is a value,
and ``-h``/``--help`` prints the help text to stdout, before or after
the command.  The form every request uses, full option names each with
a separate value, is read without importing argparse, by a fast reader
of the same table; argparse, given its keywords, reads every other form
and formats every help and usage text from them.

As the process entry (``main()`` with no argv), the front end ends the
process once the command has run: it runs the ``atexit`` hooks, flushes
stdout and stderr and calls ``os._exit``, so the interpreter does not tear
down the objects and modules that the request leaves.  A request imports
``json`` only to word an error in a group or datum file; ``--format json``
is written without it.

Exit codes are a stable contract: 0 success, 2 input validation failure
or usage error, 3 datum inconsistency (non-exact normalization
division), 4 verification mismatch.
"""

import atexit
import itertools
import os
import sys
from collections import Counter
from collections.abc import Sequence
from types import SimpleNamespace

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
from .poly import LaurentPoly, NonExactDivision
from .tqft import (
    GENUS_TUBE,
    IDENTITY_TUBE,
    assemble_word,
    load_datum,
    puncture_tube,
    word_epoly,
    word_fold,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVISION = 3
EXIT_VERIFY = 4

_BACKEND_OPTIONS = (
    ("--backend", dict(help="the backend that builds the datum",
                       choices=("finite", "affc", "custom"), required=True)),
    ("--group", dict(help="group JSON file (finite backend)")),
    ("--datum", dict(help="datum JSON file (custom backend)")),
)

# The width of every help and usage text: wider than any of their lines, so
# none wraps and the text is the same at every terminal width.
_HELP_WIDTH = 10_000

# command -> (help, option table); each row is an option's name and its
# keywords to argparse's ``add_argument``.
_COMMANDS = {
    "compute": ("compute the E-polynomial of one decorated surface", (
        *_BACKEND_OPTIONS,
        ("--genus", dict(help="genus, >= 0", type=int, required=True)),
        ("--puncture", dict(
            help="add one puncture; finite backend: rep=INDEX or elements=i,j,k (rep= "
                 "closes the class automatically); custom backend: a tube label from the "
                 "datum file; repeatable, order preserved",
            action="append", default=[], metavar="SPEC")),
        ("--format", dict(help="output form (default: q form when the result is diagonal)",
                          choices=("q-text", "uv-text", "json"), default="q-text")),
    )),
    "verify": ("cross-check a backend against its independent oracle", (
        *_BACKEND_OPTIONS,
        ("--max-genus", dict(help="highest genus checked", type=int, default=2)),
        ("--max-punctures", dict(help="finite backend only", type=int, default=2)),
        ("--budget", dict(
            help="cap on the brute-force tuple count n^(2g) * prod |class| (the oracle "
                 "folds prefix-product distributions, so its work is far smaller); a check "
                 "over the cap is marked SKIP",
            type=int, default=DEFAULT_BUDGET)),
    )),
    "classes": ("print the conjugacy classes of a finite group", (
        ("--group", dict(help="group JSON file", required=True)),
    )),
}


def _parse_args(argv: Sequence[str]):
    """``command`` plus one attribute per option of that command, named
    as argparse names it: ``--max-genus`` gives ``max_genus``.

    ``COMMAND (--full-name VALUE)*``, with no value starting with ``-``, is
    read here without importing argparse; every other command line goes to
    argparse, which prints the help text or a usage error and raises
    SystemExit.  Both read the same argparse keywords from the same
    tables, so they accept the same command lines with the same result.
    An appended value makes a new list, so a table's default is never
    changed.
    """
    if argv and argv[0] in _COMMANDS and len(argv) % 2:
        options = dict(_COMMANDS[argv[0]][1])
        values = {name: keywords.get("default") for name, keywords in options.items()}
        for name, value in zip(argv[1::2], argv[2::2]):
            keywords = options.get(name)
            if keywords is None or value.startswith("-"):
                break
            try:
                value = keywords.get("type", str)(value)
            except ValueError:
                break
            if "choices" in keywords and value not in keywords["choices"]:
                break
            values[name] = [*values[name], value] if keywords.get("action") == "append" else value
        else:
            if {name for name, k in options.items() if k.get("required")} <= set(argv[1::2]):
                dests = {name[2:].replace("-", "_"): value for name, value in values.items()}
                return SimpleNamespace(command=argv[0], **dests)
    return _argparse_parser().parse_args(argv)


def _argparse_parser():
    """The argparse parser of the option tables, which formats every help
    and usage text at the fixed width ``_HELP_WIDTH``."""
    import argparse
    from functools import partial

    formatter = partial(argparse.HelpFormatter, width=_HELP_WIDTH)
    parser = argparse.ArgumentParser(prog="repvar", formatter_class=formatter, description=(
        "E-polynomials of surface-group representation varieties "
        "by exact transfer-matrix evaluation."))
    commands = parser.add_subparsers(dest="command", required=True, title="commands")
    for name, (text, options) in _COMMANDS.items():
        command = commands.add_parser(name, help=text, description=text, formatter_class=formatter)
        for name, keywords in options:
            command.add_argument(name, **keywords)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` when None) and
    return its exit code; never raises SystemExit.

    ``argv is None`` is the process entry (the console script,
    ``python -m repvar.cli``, ``sys.exit(main())``): once the command has
    run, the process ends with its code.  The ``atexit`` hooks run, as
    registered so far, then stdout and stderr are flushed, the order in
    which the interpreter's own exit takes them, and ``os._exit`` skips
    the teardown of modules and objects, which nothing after the output
    needs.  If a flush raises, ``main`` returns the code instead, and the
    interpreter's exit reports the error as it would without this step.
    A caller that passes ``argv`` gets the code back and the process goes
    on.
    """
    code = _run(sys.argv[1:] if argv is None else argv)
    if argv is None:
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (AttributeError, OSError, ValueError):  # no stream, a closed pipe or file
            return code
        os._exit(code)
    return code


def _run(argv: Sequence[str]) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:  # argparse printed the help text or a usage error
        return exc.code
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
    except (ValueError, OSError) as exc:
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


def _input_file(args) -> str:
    """The file the finite (--group) or custom (--datum) backend reads."""
    if args.backend == "finite":
        flag, path = "--group", args.group
    else:
        flag, path = "--datum", args.datum
    if not path:
        raise ValueError(f"--backend {args.backend} requires {flag}")
    return path


def _build_datum_and_labels(args) -> tuple:
    """The backend's datum and each puncture's tube label.  A finite
    puncture's label is its subset (closed for ``rep=``), sorted and without
    repeats, so equal punctures, however spelt, share one tube."""
    puncture_specs = [_parse_puncture_spec(s) for s in args.puncture]

    if args.backend == "finite":
        group = load_group(_input_file(args))
        subsets = {}
        labels = []
        for text, (kind, value) in zip(args.puncture, puncture_specs):
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
            if kind == "rep":
                value = conjugacy_closure(group, value)
            label = ",".join(map(str, sorted(set(value))))
            subsets[label] = value
            labels.append(label)
        return class_datum(group, subsets), labels

    if any(kind != "label" for kind, _ in puncture_specs):
        raise ValueError("rep= and elements= punctures require --backend finite")
    labels = [value for _, value in puncture_specs]

    if args.backend == "affc":
        return affc_datum(), labels

    return load_datum(_input_file(args)), labels


def _format_poly(poly: LaurentPoly, fmt: str) -> str:
    if fmt == "uv-text":
        return poly.to_text(force_uv=True)
    if fmt == "json":
        # json.dumps' text, written here so that json is not imported: each
        # term is two ints and a decimal string, none of which needs escaping.
        return "[" + ", ".join(f'[{a}, {b}, "{c}"]' for a, b, c in poly.to_json_terms()) + "]"
    return poly.to_text()


def _cmd_compute(args) -> int:
    if args.genus < 0:
        raise ValueError("--genus must be >= 0")
    datum, labels = _build_datum_and_labels(args)
    result = word_epoly(datum)(assemble_word(args.genus, labels))
    print(_format_poly(result, args.format))
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


class _Report(Counter):
    """The rows ``verify`` has printed, counted by status: PASS, FAIL or SKIP."""

    def record(self, description: str, status: str, detail: str | None = None) -> None:
        print(f"CHECK {description} ... {status}")
        if detail:
            print(f"  {detail}")
        self[status] += 1

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
        print(f"SUMMARY: {self['PASS']} passed, {self['FAIL']} failed, {self['SKIP']} skipped")
        return EXIT_OK if self["FAIL"] == 0 else EXIT_VERIFY


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


def _verify_affc(args, report: _Report) -> None:
    vec, step, value = word_fold(affc_datum())
    xk = xk_values()  # e(X_1), e(X_2), ...: two steps per genus
    for genus in range(1, args.max_genus + 1):
        vec = step(vec, GENUS_TUBE)
        engine = value(vec, genus)
        report.compare(
            f"affc closed-form genus={genus}", engine, "closed-form", affc_closed_form(genus)
        )
        next(xk)
        recursion = next(xk)  # e(X_2g)
        report.compare(f"affc recursion genus={genus}", engine, "recursion", recursion)


def _verify_finite(args, report: _Report) -> None:
    """Check every (genus, puncture multiset) against the brute-force
    oracle, walking each genus level by level: the multisets of s
    classes after those of s - 1.

    Both sides fold the same word, genus^g then one puncture tube per
    class in the multiset: the engine a vector through the tube matrices
    (``word_fold``), the oracle a distribution of partial products through
    one slot per tube.  Each row's pair of states is one step from its
    parent's: the last genus's for the empty multiset, else the multiset
    without its last class, kept from the level before (the last level
    keeps nothing).  The commutator slot is built on the first genus
    step.  A row over the budget is marked SKIP before any work for it;
    the tuple count grows with every slot, so the rows that extend it
    are over the budget too and never look up their missing parent.
    """
    group = load_group(_input_file(args))
    classes = conjugacy_classes(group)
    tubes = [puncture_tube(f"c{i}") for i in range(len(classes))]
    datum = class_datum(group, {tube.label: m for tube, m in zip(tubes, classes.members)})
    sizes = [len(members) for members in classes.members]
    # Oracle slots keyed by the engine's tubes, each built once: the
    # commutators on the first genus step.
    slots = {tube: puncture_slot(group, m) for tube, m in zip(tubes, classes.members)}
    start, step, value = word_fold(datum)

    def advance(state: tuple, tube) -> tuple:
        vec, dist = state
        if tube not in slots:
            slots[tube] = commutator_slot(group)
        return step(vec, tube), fold_slot(group, dist, slots[tube])

    state = (start, Counter({group.identity: 1}))  # after the genus tubes
    for genus in range(args.max_genus + 1):
        for s in range(args.max_punctures + 1):
            level = {}
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
                if combo:
                    here = advance(kept[combo[:-1]], tubes[combo[-1]])
                else:  # the genus's first row, so its first within the budget
                    state = here = advance(state, GENUS_TUBE) if genus else state
                if s < args.max_punctures:
                    level[combo] = here
                vec, dist = here
                try:
                    engine = value(vec, genus + s)
                except NonExactDivision as exc:
                    report.record(desc, "FAIL", f"counterexample: {exc}")
                    continue
                report.compare(desc, engine, "brute-force", dist[group.identity])
            kept = level  # this level's states by multiset, for the next


def _verify_custom(args, report: _Report) -> None:
    datum = load_datum(_input_file(args))
    vec, step, value = word_fold(datum)
    for genus in range(args.max_genus + 1):
        if genus:
            vec = step(vec, GENUS_TUBE)
        desc = f"custom normalization genus={genus}"
        try:
            result = value(vec, genus)
        except NonExactDivision as exc:
            report.record(desc, "FAIL", f"counterexample: genus={genus}: {exc}")
            continue
        report.record(desc, "PASS")
        if IDENTITY_TUBE in datum.tubes:
            # The same word with one plain cylinder appended.
            desc = f"custom cylinder-insertion genus={genus}"
            try:
                padded = value(step(vec, IDENTITY_TUBE), genus + 1)
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
