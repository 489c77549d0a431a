"""Transfer-matrix evaluation of decorated closed surfaces.

A ``TqftDatum`` packages the finitely generated module a group's tube
operators act on: one mapping ``tubes`` from tube generator to square
matrix (the genus tube always; the plain cylinder and one cylinder per
puncture label optionally), the cap vector, the cup covector, and the
group class ``e_G`` that normalizes the final answer.  A closed surface
of genus g with s ordered punctures is the word

    cup . puncture_s . ... . puncture_1 . genus^g . cap

and its E-polynomial is the evaluated scalar divided by ``e_G`` raised to
the number of tubes in the word.  A word is a tuple of tube generators,
and ``word_fold`` gives the fold of words over a datum in three parts:
the cap vector to start from, a step that applies one tube, and the
value of a folded vector at the cup.  The one evaluator,
``word_epoly``, folds a word through them.  By functoriality a surface
with one more tube glued on is its parent's vector moved by one step,
so a caller that evaluates many words keeps each parent's vector and
pays one matrix-vector product per word (``verify`` walks the genera,
and the puncture multisets level by level).

A long genus run is jumped instead of stepped.  When a word starts with
g genus tubes and g > (r + 4)^2 / 4 for the datum's rank r (the measured
crossover), ``word_epoly`` moves the cap vector through them by the
companion recurrence of the genus tube's characteristic polynomial
(``char_poly``, Berkowitz's division-free algorithm): r products per
genus in place of the r^2 of a matrix-vector product.  By Cayley and
Hamilton it reaches the vector the steps reach, in the same ring, so the
value and any division failure are the same.  The rest of the word is
stepped.  ``verify`` steps every genus, since each genus is a row.

The division is exact for any datum that comes from an actual group; a
failure means the datum is inconsistent.  The datum's tube and disc
entries are all ``int`` or all ``LaurentPoly``.  How a word is folded
over them is a choice of the evaluation, made once per fold by
``fold_form``.  When ``e_G`` has more than one term and divides every
entry of every tube, it is divided out of the tubes and the word is
folded over the quotients, so the folded vector never carries the factor
``e_G^i`` and nothing is left to divide at the end.  The ring of the
fold is plain ``int`` when every entry is an ``int`` (a finite group's
``class_datum``), Z[q] packed into one integer per value (``QPoly``)
when every entry is a polynomial in q, at least one is not constant and
the q-exponents present fill at least half of their range,
``LaurentPoly`` otherwise.  The matrix algebra only adds and multiplies,
so the one evaluator serves all three.  An ``int`` scalar is divided by
a constant e_G^t with ``divmod``; any other scalar is converted back to
a ``LaurentPoly`` before the division, and the result is a
``LaurentPoly`` either way.

Matrices follow the column convention: column j holds the image of
generator j, so words act by left multiplication on column vectors.

``TubeGenerator``, ``SurfaceSpec`` and ``TqftDatum`` are
immutable value classes (``record.Record``): each checks its arguments
on construction, stores sequences as tuples, refuses assignment, and
compares by value.
"""

import os
from collections.abc import Mapping, Sequence
from functools import reduce
from operator import add, mul

from .poly import LaurentPoly, NonExactDivision, ONE, PolyParseError, QPoly, parse_poly
from .record import Record, echo, read_json

__all__ = [
    "InvalidDatum",
    "UnknownPunctureLabel",
    "TubeGenerator",
    "GENUS_TUBE",
    "IDENTITY_TUBE",
    "puncture_tube",
    "SurfaceSpec",
    "TqftDatum",
    "assemble_word",
    "fold_form",
    "word_fold",
    "word_epoly",
    "epoly_rep_variety",
    "mat_vec",
    "dot",
    "char_poly",
    "datum_to_json_dict",
    "datum_from_json_dict",
    "load_datum",
    "save_datum",
]


class InvalidDatum(ValueError):
    """A structural invariant of the datum fails."""


class UnknownPunctureLabel(ValueError):
    """A word references a puncture label the datum does not provide."""

    def __init__(self, label: str, available=()):
        self.label = label
        self.available = tuple(sorted(available))
        provided = ", ".join(repr(name) for name in self.available) or "(none)"
        super().__init__(f"unknown puncture label {label!r}; the datum provides: {provided}")


# ----------------------------------------------------------------------
# Exact matrix algebra over the datum's ring
# ----------------------------------------------------------------------


def dot(row: Sequence, col: Sequence):
    """Sum of ``row[i] * col[i]`` over a ring with ``+`` and ``*``; the sum
    starts from the first product, so it needs no zero of the ring and
    the rows must not be empty."""
    return reduce(add, map(mul, row, col))


def mat_vec(matrix: Sequence[Sequence], vec: Sequence) -> tuple:
    return tuple(dot(row, vec) for row in matrix)


def char_poly(matrix: Sequence[Sequence]) -> tuple:
    """The coefficients ``(c_0, ..., c_{r-1})`` of det(x*I - M) = x^r +
    sum of c_i x^i for an r x r matrix M over a commutative ring, lowest
    first, by Berkowitz's division-free algorithm (1984): only ``+``,
    ``*`` and unary ``-``, about r^4/4 products.

    The characteristic polynomial of the leading (k+1) x (k+1) block is
    that of the leading k x k block A times a Toeplitz matrix whose
    column is 1, -a_kk and -R A^m C for m < k, where R and C are row k
    and column k cut to the block."""
    coeffs: list = []  # det(x*I - A) below its leading 1, highest first
    for k, row in enumerate(matrix):
        block = [r[:k] for r in matrix[:k]]
        vec, t = [r[k] for r in matrix[:k]], [-row[k]]
        for m in range(k):
            if m:
                vec = mat_vec(block, vec)
            t.append(-dot(row[:k], vec))
        coeffs = [
            reduce(add, [t[i], *(t[i - 1 - j] * coeffs[j] for j in range(i)), *coeffs[i:i + 1]])
            for i in range(k + 1)
        ]
    return tuple(reversed(coeffs))


# ----------------------------------------------------------------------
# Words and surfaces
# ----------------------------------------------------------------------


class TubeGenerator(Record):
    """One tube in a word: the genus tube, the plain cylinder, or a
    labeled puncture cylinder."""

    _fields = ("kind", "label")

    def __init__(self, kind: str, label: str | None = None):
        if kind not in ("genus", "identity", "puncture"):
            raise ValueError(f"unknown tube kind {kind!r}")
        if (kind == "puncture") != (label is not None):
            raise ValueError("exactly puncture tubes carry a label")
        self.__dict__.update(kind=kind, label=label)

    def __str__(self) -> str:
        return f"{self.kind} tube" + ("" if self.label is None else f" {echo(self.label)}")


GENUS_TUBE = TubeGenerator("genus")
IDENTITY_TUBE = TubeGenerator("identity")


def puncture_tube(label: str) -> TubeGenerator:
    return TubeGenerator("puncture", label)


class SurfaceSpec(Record):
    """A closed oriented surface: genus plus ordered puncture labels."""

    _fields = ("genus", "punctures")

    def __init__(self, genus: int, punctures: Sequence[str] = ()):
        if genus < 0:
            raise ValueError("genus must be >= 0")
        self.__dict__.update(genus=genus, punctures=tuple(punctures))


def assemble_word(spec: SurfaceSpec) -> tuple:
    """The surface's word: genus tubes first, then the punctures in their
    listed order."""
    return (GENUS_TUBE,) * spec.genus + tuple(map(puncture_tube, spec.punctures))


# ----------------------------------------------------------------------
# The datum
# ----------------------------------------------------------------------


class TqftDatum(Record):
    """Tube matrices, keyed by ``TubeGenerator``, and disc vectors for one
    coefficient module; its rank is the length of the cap vector ``disc_in``.

    The tube and disc entries are all ``int`` (a finite group's
    ``class_datum``) or all ``LaurentPoly``; e_G is a ``LaurentPoly``.
    Structural invariants are checked on construction; nothing verifies
    that the datum actually arises from a group, so an inconsistent
    custom datum surfaces later as a NonExactDivision.  A datum compares
    by value but is not hashable, since its tubes are a dict.
    """

    _fields = ("e_g", "tubes", "disc_in", "disc_out")

    def __init__(
        self,
        e_g: LaurentPoly,
        tubes: Mapping[TubeGenerator, Sequence[Sequence]],
        disc_in: Sequence,
        disc_out: Sequence,
    ):
        self.__dict__.update(
            e_g=e_g,
            tubes={generator: tuple(map(tuple, m)) for generator, m in dict(tubes).items()},
            disc_in=tuple(disc_in),
            disc_out=tuple(disc_out),
        )
        self._validate()

    @property
    def rank(self) -> int:
        return len(self.disc_in)

    def _validate(self) -> None:
        if self.rank < 1:
            raise InvalidDatum("rank must be a positive integer: disc_in is empty")
        for generator, matrix in self.tubes.items():
            if not isinstance(generator, TubeGenerator):
                raise InvalidDatum(f"tubes must be keyed by TubeGenerator, got {generator!r}")
            if len(matrix) != self.rank or any(len(row) != self.rank for row in matrix):
                raise InvalidDatum(f"{generator} must be a {self.rank}x{self.rank} matrix")
        if GENUS_TUBE not in self.tubes:
            raise InvalidDatum("tubes must include the genus tube")
        if len(self.disc_out) != self.rank:
            raise InvalidDatum(f"disc_out must have length {self.rank}")
        if type(self.e_g) is not LaurentPoly:
            raise InvalidDatum(f"e_G must be a LaurentPoly, got {echo(self.e_g)}")
        if not self.e_g:
            raise InvalidDatum("e_G must be nonzero")
        # The first cap entry sets the ring, and the discs are checked
        # before the tubes, so the entry named is the first that differs.
        ring = int if type(self.disc_in[0]) is int else LaurentPoly
        rows = [("disc_in entry ", self.disc_in), ("disc_out entry ", self.disc_out)]
        rows += [
            (f"{generator} row {i} column ", row)
            for generator, matrix in self.tubes.items()
            for i, row in enumerate(matrix)
        ]
        for place, row in rows:
            for j, x in enumerate(row):
                if type(x) is not ring:
                    raise InvalidDatum(
                        "tube and disc entries must be all int or all LaurentPoly: "
                        f"{place}{j} is {echo(x)}"
                    )
        sphere = dot(self.disc_out, self.disc_in)
        if sphere != ONE:
            raise InvalidDatum(
                f"sphere normalization fails: disc_out . disc_in = {echo(sphere, str)}, not 1"
            )
        if IDENTITY_TUBE in self.tubes:
            through = dot(self.disc_out, mat_vec(self.tubes[IDENTITY_TUBE], self.disc_in))
            if through != self.e_g:
                raise InvalidDatum(
                    "identity-tube consistency fails: disc_out . P . disc_in = "
                    f"{echo(through, str)}, not e_G = {echo(self.e_g, str)}"
                )

    def tube_matrix(self, generator: TubeGenerator) -> tuple:
        matrix = self.tubes.get(generator)
        if matrix is not None:
            return matrix
        if generator.kind == "puncture":
            labels = [tube.label for tube in self.tubes if tube.kind == "puncture"]
            raise UnknownPunctureLabel(generator.label, labels)
        raise InvalidDatum("word uses the plain cylinder but the datum has no identity tube")


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


def _entries(tubes: dict, cap: tuple, cup: tuple) -> list:
    """Every tube entry, then every cap and cup entry."""
    return [x for matrix in tubes.values() for row in matrix for x in row] + [*cap, *cup]


def _map_tubes(entry, tubes: dict) -> dict:
    """``tubes`` with ``entry`` applied to every entry."""
    return {
        generator: tuple(tuple(map(entry, row)) for row in matrix)
        for generator, matrix in tubes.items()
    }


def fold_form(datum: TqftDatum) -> tuple:
    """The datum as its words are folded, ``(e_g, tubes, cap, cup)``: the
    e_G each word is divided by at its end, the tube matrices by
    generator, and the disc vectors, in the ring the fold runs over.

    ``int`` entries (a finite group's ``class_datum``) are folded as they
    are.  Otherwise, when e_G has more than one term and divides every
    tube entry, each tube is e_G times its quotient, so the raw scalar of
    a t-tube word is e_G^t times its scalar over the quotients: the form
    has those quotients and e_G = 1.  The tubes are kept, with the
    end-of-word division, when e_G has one term (|G| for every finite
    group: dividing it out changes no term count), when it does not
    divide some tube, or when a quotient grows past as many terms as all
    of the datum's entries together: e_G = q - 1 divides q^N - 1 into N
    terms, which a few-byte file could otherwise make as long as it
    likes.

    When every entry left is a polynomial in q, at least one is not
    constant, and the q-exponents present fill at least half of the range
    from the lowest to the highest, the entries become ``QPoly`` values,
    each packed into one integer with a digit per exponent in its range,
    which multiply and add in a few big-integer passes.  A t-tube word's
    exponents lie in t times the data's range, so its packed scalar has
    at most 2t times as many digits as the data has distinct exponents.
    Otherwise the entries stay ``LaurentPoly``: separate u and v
    exponents need it, constant data (the shipped S3 class datum) stays
    on it, and so does sparse data such as ``q^1000000000 + 1``, whose
    packed integer would need a digit for every exponent up to its own.
    """
    e_g, tubes, cap, cup = datum.e_g, datum.tubes, datum.disc_in, datum.disc_out
    if type(cap[0]) is int:  # so is every entry: see TqftDatum
        return e_g, tubes, cap, cup
    if len(e_g) > 1:
        limit = sum(map(len, _entries(tubes, cap, cup)))
        try:
            tubes, e_g = _map_tubes(lambda x: x.exact_div(datum.e_g, limit), tubes), ONE
        except NonExactDivision:
            pass
    # One pass over the entries' terms, unsorted, decides the ring.
    keys = set().union(*(x.exponents() for x in _entries(tubes, cap, cup)))
    if keys - {(0, 0)} and all(a == b for a, b in keys):
        exponents = {a for a, _ in keys}
        if max(exponents) - min(exponents) < 2 * len(exponents):
            pack = QPoly.from_laurent
            return e_g, _map_tubes(pack, tubes), tuple(map(pack, cap)), tuple(map(pack, cup))
    return e_g, tubes, cap, cup


def word_fold(datum: TqftDatum) -> tuple:
    """The fold of words over ``fold_form(datum)``, built once, as
    ``(start, step, value)``: ``start`` is the cap vector, ``step(vec,
    tube)`` applies one tube generator to a vector, and ``value(vec, t)``
    is the E-polynomial of a t-tube word whose folded vector is ``vec``.

    ``value`` takes the cup's scalar and divides it by the form's e_G once
    per tube, or by nothing when that e_G is 1.  An ``int`` scalar over a
    constant e_G is divided with ``divmod``; any other scalar, or one that
    leaves a remainder, is divided as a ``LaurentPoly`` (which raises
    ``NonExactDivision`` on a remainder).  The E-polynomial is a
    ``LaurentPoly`` either way.  The parts step one tube at a time, so a
    walk that needs every genus's vector (``verify``) pays one
    matrix-vector product per genus; only ``word_epoly`` jumps a long
    genus run."""
    return _fold_parts(datum, fold_form(datum))


def _fold_parts(datum: TqftDatum, form: tuple) -> tuple:
    """``word_fold``'s three parts over the given fold form."""
    e_g, tubes, cap, cup = form
    e_g_int = e_g.constant_value() if e_g.is_constant() else None

    def step(vec, tube: TubeGenerator) -> tuple:
        # A matrix is never empty; a tube the datum lacks raises there.
        return mat_vec(tubes.get(tube) or datum.tube_matrix(tube), vec)

    def value(vec, t: int) -> LaurentPoly:
        raw = dot(cup, vec)
        if type(raw) is int:
            if e_g_int is not None:
                quotient, remainder = divmod(raw, e_g_int ** t)
                if not remainder:
                    return LaurentPoly.const(quotient)
            raw = LaurentPoly.const(raw)
        elif isinstance(raw, QPoly):
            raw = raw.to_laurent()
        return raw if e_g == ONE else raw.exact_div(e_g ** t)

    return cap, step, value


def _jump_threshold(rank: int) -> int:
    """The longest genus run ``word_epoly`` steps through at this rank,
    (r + 4)^2 / 4 rounded down; a longer one is jumped.  It sits at the
    measured crossover, where the jump, its characteristic polynomial
    included, starts to beat the walk: about 4r genera up to rank 12 over
    ``int``, ``QPoly`` and constant ``LaurentPoly`` data, growing as the
    polynomial's r^4/4 products take over (about 115 at rank 21)."""
    return (rank + 4) ** 2 // 4


def _genus_jump(genus_tube: tuple, start: tuple, step):
    """The cap vector moved through g genus tubes, L^g . cap, as a
    function of g >= r for the fold's r x r genus tube L, computed
    without a matrix-vector product per genus.

    With K_i = L^i . cap for i < r (the first r - 1 steps of the walk)
    and det(x*I - L) = x^r + sum of c_i x^i (``char_poly``), Cayley and
    Hamilton give L^r = sum of -c_i L^i over any commutative ring.  So
    L^g . cap = sum of y_i K_i, where y = -c at g = r and one more genus
    shifts y up by one place and adds its top coordinate times -c: r
    products per genus, not r^2.  The vector is then the same vector the
    walk reaches, in the same ring."""
    krylov = [start]
    for _ in range(1, len(start)):
        krylov.append(step(krylov[-1], GENUS_TUBE))
    columns = tuple(zip(*krylov))
    minus_c = [-c for c in char_poly(genus_tube)]

    def jump(genus: int) -> tuple:
        y = minus_c
        for _ in range(genus - len(minus_c)):
            top = y[-1]
            y = [top * minus_c[0], *(a + top * b for a, b in zip(y, minus_c[1:]))]
        return tuple(dot(y, column) for column in columns)

    return jump


def word_epoly(datum: TqftDatum):
    """The evaluator of words over ``datum``: a callable from a word (a
    tuple of tube generators, as from ``assemble_word``) to its
    E-polynomial, the ``word_fold`` value of the cap vector folded through
    the word's tubes.

    A word's leading run of g genus tubes is stepped through one tube at
    a time while g <= (r + 4)^2 / 4 for the datum's rank r, and jumped
    when it is longer (``_genus_jump``, whose characteristic polynomial is
    computed on the first such word): the jump's r products per genus
    beat the step's r^2 once they have paid for the polynomial.  Both
    reach the same vector, so the value, and any ``NonExactDivision``
    message, is the same either way."""
    form = fold_form(datum)
    start, step, value = _fold_parts(datum, form)
    longest = _jump_threshold(len(start))
    jump = None

    def epoly(word: tuple) -> LaurentPoly:
        nonlocal jump
        vec, rest = start, word
        if len(word) > longest:
            # assemble_word repeats the one GENUS_TUBE, so identity settles
            # the run without a Record comparison per tube.
            genus = next(
                (i for i, t in enumerate(word) if t is not GENUS_TUBE and t != GENUS_TUBE),
                len(word),
            )
            if genus > longest:
                if jump is None:
                    jump = _genus_jump(form[1][GENUS_TUBE], start, step)
                vec, rest = jump(genus), word[genus:]
        return value(reduce(step, rest, vec), len(word))

    return epoly


def epoly_rep_variety(datum: TqftDatum, spec: SurfaceSpec) -> LaurentPoly:
    """E-polynomial of the representation variety of the decorated
    surface, computed over the given datum."""
    return word_epoly(datum)(assemble_word(spec))


# ----------------------------------------------------------------------
# Datum files
# ----------------------------------------------------------------------


def _entry_to_json(entry) -> str:
    """An entry's polynomial text; an ``int`` entry as its constant."""
    return (LaurentPoly.const(entry) if type(entry) is int else entry).to_text()


def _matrix_to_json(matrix: tuple) -> list[list[str]]:
    return [list(map(_entry_to_json, row)) for row in matrix]


def _matrix_from_json(data, what: str) -> tuple:
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise InvalidDatum(f"{what} must be a list of rows")
    try:
        return tuple(tuple(parse_poly(str(entry)) for entry in row) for row in data)
    except PolyParseError as exc:
        raise InvalidDatum(f"bad polynomial in {what}: {exc}") from exc


def datum_to_json_dict(datum: TqftDatum) -> dict:
    """The datum as a datum-file object, every entry as polynomial text:
    an ``int`` entry is written as the constant it is, so a finite
    group's ``class_datum`` saves as its ``LaurentPoly`` twin would."""
    tubes = datum.tubes
    out: dict = {
        "rank": datum.rank,
        "e_G": datum.e_g.to_text(),
        "L": _matrix_to_json(tubes[GENUS_TUBE]),
        "punctures": {
            label: _matrix_to_json(m)
            for label, m in sorted((t.label, m) for t, m in tubes.items() if t.kind == "puncture")
        },
        "disc_in": list(map(_entry_to_json, datum.disc_in)),
        "disc_out": list(map(_entry_to_json, datum.disc_out)),
    }
    if IDENTITY_TUBE in tubes:
        out["P"] = _matrix_to_json(tubes[IDENTITY_TUBE])
    return out


def datum_from_json_dict(data: dict) -> TqftDatum:
    if not isinstance(data, dict):
        raise InvalidDatum("datum file must contain a JSON object")
    missing = {"rank", "e_G", "L", "disc_in", "disc_out"} - set(data)
    if missing:
        raise InvalidDatum(f"datum file is missing keys: {', '.join(sorted(missing))}")
    for key in ("disc_in", "disc_out"):
        if not isinstance(data[key], list):
            raise InvalidDatum(f"{key} must be a list of polynomials, got {echo(data[key])}")
    rank = data["rank"]
    if type(rank) is not int or rank != len(data["disc_in"]):
        raise InvalidDatum(
            "rank must be an integer equal to the length of disc_in "
            f"({len(data['disc_in'])}), got {echo(rank)}"
        )
    try:
        e_g = parse_poly(str(data["e_G"]))
        disc_in = tuple(parse_poly(str(x)) for x in data["disc_in"])
        disc_out = tuple(parse_poly(str(x)) for x in data["disc_out"])
    except PolyParseError as exc:
        raise InvalidDatum(f"bad polynomial in datum file: {exc}") from exc
    punctures = data.get("punctures", {})
    if not isinstance(punctures, dict):
        raise InvalidDatum("punctures must be an object of label -> matrix")
    tubes = {GENUS_TUBE: _matrix_from_json(data["L"], "L")}
    if "P" in data:
        tubes[IDENTITY_TUBE] = _matrix_from_json(data["P"], "P")
    for label, m in punctures.items():
        tubes[puncture_tube(str(label))] = _matrix_from_json(m, f"punctures[{echo(label)}]")
    return TqftDatum(e_g, tubes, disc_in, disc_out)


def load_datum(path: str | os.PathLike[str]) -> TqftDatum:
    """The datum in a datum file, refused with ``InvalidDatum`` as
    ``datum_from_json_dict`` and ``read_json`` word it."""
    return datum_from_json_dict(read_json(path, "datum", InvalidDatum))


def save_datum(datum: TqftDatum, path: str | os.PathLike[str]) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(datum_to_json_dict(datum), handle, indent=2)
        handle.write("\n")
