"""In-process tracer for repvar that lives outside its source tree.

``Tracer.install`` rebinds repvar's public functions and a few
``LaurentPoly``/``TqftDatum`` methods to timing or counting wrappers,
everywhere a ``repvar.*`` module or class holds them, so names copied
by ``from .x import y`` are covered too.  ``uninstall`` puts every
original back.  Spans (name, start, end, parent, request id) stay in
memory until the caller writes them out.  A target that a later version
of repvar no longer has is skipped and listed in ``missing``; its
metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# (span name, module, attribute path); every call becomes a span
SPAN_TARGETS = [
    ("cli.request", "repvar.cli", "main"),
    ("finite_group.ingest", "repvar.finite_group", "load_group"),
    ("finite_group.from_cayley_table", "repvar.finite_group", "from_cayley_table"),
    ("finite_group.classes", "repvar.finite_group", "conjugacy_classes"),
    ("finite_group.closure", "repvar.finite_group", "conjugacy_closure"),
    ("finite_group.genus_matrix", "repvar.finite_group", "genus_matrix"),
    ("finite_group.puncture_matrix", "repvar.finite_group", "puncture_matrix"),
    ("finite_group.tube_matrix_P", "repvar.finite_group", "tube_matrix_P"),
    ("finite_group.lift", "repvar.finite_group", "to_tqft_datum"),
    ("finite_group.class_reduce", "repvar.finite_group", "class_reduce"),
    ("finite_group.brute_force", "repvar.finite_group", "brute_force_count"),
    ("tqft.datum_validate", "repvar.tqft", "TqftDatum.__init__"),
    ("tqft.evaluate_raw", "repvar.tqft", "evaluate_raw"),
    ("tqft.mat_pow", "repvar.tqft", "mat_pow"),
    ("tqft.mat_vec", "repvar.tqft", "mat_vec"),
    ("poly.pow", "repvar.poly", "LaurentPoly.__pow__"),
    ("poly.exact_div", "repvar.poly", "LaurentPoly.exact_div"),
    ("poly.format", "repvar.poly", "LaurentPoly.to_text"),
    ("poly.format", "repvar.poly", "LaurentPoly.to_json_terms"),
    ("affc.datum", "repvar.affc", "affc_datum"),
]

# (counter name, module, attribute path); every call adds one
COUNT_TARGETS = [
    ("poly.mul_calls", "repvar.poly", "LaurentPoly.__mul__"),
    ("poly.add_calls", "repvar.poly", "LaurentPoly.__add__"),
    ("tqft.mat_mul_calls", "repvar.tqft", "mat_mul"),
]

# spans whose metric is self time rather than inclusive time
SELF_TIME = {"finite_group.lift", "cli.request"}

TUBE_BUILDERS = {"finite_group.genus_matrix", "finite_group.puncture_matrix", "finite_group.tube_matrix_P"}


def _max_coeff_bits(poly) -> int:
    return max((abs(c).bit_length() for _, c in poly.items()), default=0)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, request id)
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.missing: list[str] = []
        self.request_id = None
        self.class_count = 0  # conjugacy classes of the current request's group
        self._stack: list[int] = []
        self._bindings: list = []  # (owner, attribute, original, wrapper)
        self._plan()

    # -- rebinding -----------------------------------------------------

    def _plan(self) -> None:
        owners = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "repvar"]
        owners += [v for m in list(owners) for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("repvar")]
        owners = list({id(o): o for o in owners}.values())
        for targets, make in ((SPAN_TARGETS, self._span_wrapper), (COUNT_TARGETS, self._count_wrapper)):
            for name, module, path in targets:
                original = self._resolve(module, path)
                if original is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                wrapper = make(name, original)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._bindings.append((owner, attr, original, wrapper))

    @staticmethod
    def _resolve(module: str, path: str):
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        return None if owner is None else vars(owner).get(attr)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        facts = self._facts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            before = self.counts["poly.mul_calls"]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.request_id)
            facts(name, args, result, self.counts["poly.mul_calls"] - before)
            return result

        return traced

    def _facts(self, name, args, result, muls) -> None:
        """Size facts recorded where the work happens, after the span ends."""
        counts, maxima = self.counts, self.maxima
        if name in TUBE_BUILDERS:
            counts["finite_group.entries_built"] += len(result) ** 2
            counts["finite_group.class_entries"] += self.class_count**2
        elif name == "finite_group.brute_force":
            group, genus, punctures = args[0], args[1], args[2] if len(args) > 2 else ()
            tuples = group.order ** (2 * genus)
            for subset in punctures:
                tuples *= len(set(subset))
            counts["finite_group.brute_force_tuples"] += tuples
        elif name == "tqft.evaluate_raw":
            datum, word = args[0], args[1]
            tubes = len(word.generators)
            counts["tqft.tubes"] += tubes
            counts["tqft.useful_mults"] += tubes * datum.rank**2 + datum.rank
            counts["tqft.evaluate_muls"] += muls
            maxima["tqft.rank_max"] = max(maxima["tqft.rank_max"], datum.rank)
        elif name == "poly.exact_div":
            counts["poly.exact_div_calls"] += 1
            bits = max(_max_coeff_bits(args[0]), _max_coeff_bits(args[1]))
            maxima["poly.coeff_bits_max"] = max(maxima["poly.coeff_bits_max"], bits)
        elif name == "tqft.mat_vec":
            counts["tqft.mat_vec_calls"] += 1

    # -- reading -------------------------------------------------------

    def totals(self, first: int = 0) -> dict:
        """Seconds per span name over spans[first:], inclusive, plus
        ``<name>.self`` for the SELF_TIME names: their time less that of
        their direct children."""
        seconds: Counter = Counter()
        child_time: Counter = Counter()
        for name, start, end, parent, _ in self.spans[first:]:
            seconds[name] += end - start
            if parent is not None and parent >= first:
                child_time[parent] += end - start
        for sid in range(first, len(self.spans)):
            name = self.spans[sid][0]
            if name in SELF_TIME:
                seconds[name + ".self"] += self.spans[sid][2] - self.spans[sid][1] - child_time[sid]
        return seconds
