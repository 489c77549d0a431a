"""Finite groups as Cayley tables, their conjugacy data, the class-space
TQFT datum of their tube operators, and the brute-force oracle.

A multiplication table is validated exactly (``from_cayley_table``), and
its elements are its own indices 0..n-1, wherever it keeps its identity;
there is no second labelling and nothing to map back.  Permutation
generators are closed breadth-first into rows, a group by construction
that is not checked again (``from_permutation_generators``).

Every conjugation scan of the engine (the classes, the closure of some
elements, the check that a puncture subset is a union of classes)
conjugates one element of each class it meets by every element, O(n)
per class and never per member, through the one helper ``_classes_met``.
The oracle's genus slot scans the same orbits with its own loop
(``commutator_slot``), so it shares no code with the engine.

``class_datum`` builds the datum the CLI evaluates: rank = class number,
straight from closed forms on class representatives, in plain integers
that the engine folds as they are; only e_G = |G| is a Laurent
polynomial.  No |G| x |G| matrix is built.  ``brute_force_count``
checks it by folding the distribution of partial products over the
multiplication table alone.

``FiniteGroup`` and ``ConjugacyClasses`` are immutable value classes
(``record.Record``) over tuples: they refuse assignment, and compare and
hash by value.
"""

import os
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from itertools import repeat
from operator import itemgetter

from .poly import LaurentPoly
from .record import Record, echo, read_json
from .tqft import GENUS_TUBE, IDENTITY_TUBE, TqftDatum, puncture_tube

__all__ = [
    "NotAGroup",
    "GroupTooLarge",
    "NotConjugationClosed",
    "BudgetExceeded",
    "FiniteGroup",
    "ConjugacyClasses",
    "from_cayley_table",
    "from_permutation_generators",
    "conjugacy_classes",
    "conjugacy_closure",
    "class_datum",
    "brute_force_count",
    "commutator_slot",
    "puncture_slot",
    "check_budget",
    "fold_slot",
    "group_from_json_dict",
    "load_group",
]


class NotAGroup(ValueError):
    """The input fails a group axiom; the message carries a witness."""


class GroupTooLarge(ValueError):
    """The group's order exceeds the configured bound."""


class NotConjugationClosed(ValueError):
    """A puncture subset is not a union of conjugacy classes."""


class BudgetExceeded(RuntimeError):
    """The brute-force oracle's tuple count n^(2g) * prod |lam| exceeds
    the budget.  The oracle folds prefix-product distributions and does
    far less work than that, but the budget still caps the tuple count."""


DEFAULT_MAX_ORDER = 10_000
DEFAULT_BUDGET = 10**9


class FiniteGroup(Record):
    """A finite group of order n: its multiplication table over the
    elements 0..n-1, in the labels of the table it was read from (or of
    the closure of its generators), and the inverse of each element.
    Everything else is derived from the table.
    """

    _fields = ("mult", "inverse")

    def __init__(self, mult: Sequence[Sequence[int]], inverse: Sequence[int]):
        self.__dict__.update(mult=tuple(map(tuple, mult)), inverse=tuple(inverse))

    @property
    def order(self) -> int:
        return len(self.mult)

    @property
    def identity(self) -> int:
        # x y == x only for y = e.
        return self.mult[0].index(0)

    def conjugate(self, h: int, g: int) -> int:
        """h g h^-1."""
        return self.mult[self.mult[h][g]][self.inverse[h]]

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        return self.mult[self.mult[self.mult[a][b]][self.inverse[a]]][self.inverse[b]]


class ConjugacyClasses(Record):
    """Partition of a group into conjugacy classes: the identity's class
    first, then the others by their smallest member.  Each class's members
    are sorted, so its representative is its smallest member.  Centralizer
    orders are derived by orbit-stabiliser, |C(x)| = |G| / |class of x|.
    """

    _fields = ("class_of", "members")

    def __init__(self, class_of: Sequence[int], members: Sequence[Sequence[int]]):
        self.__dict__.update(class_of=tuple(class_of), members=tuple(map(tuple, members)))

    @property
    def centralizer_orders(self) -> tuple[int, ...]:
        n = len(self.class_of)
        return tuple(n // len(m) for m in self.members)

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(m[0] for m in self.members)

    def __len__(self) -> int:
        return len(self.members)


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------


def from_cayley_table(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate a multiplication table and return the group on the
    table's own element labels."""
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    rows = []
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise NotAGroup(f"not a square table over 0..{n - 1}: row {i} is {echo(row)}")
        for j, x in enumerate(row):
            if type(x) is not int or not 0 <= x < n:
                raise NotAGroup(
                    f"not a square table over 0..{n - 1}: entry ({i}, {j}) is {echo(x)}"
                )
        rows.append(tuple(row))

    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")

    inverse = []
    for x, row in enumerate(rows):
        # In a monoid a unit has exactly one right inverse, so a table
        # where the first one is not two-sided but a later one is fails
        # associativity below: the same tables are rejected as by a scan.
        y = row.index(identity) if identity in row else None
        if y is None or rows[y][x] != identity:
            raise NotAGroup(f"element {x} has no two-sided inverse")
        inverse.append(y)

    _check_associative(rows, identity)
    return FiniteGroup(mult=tuple(rows), inverse=tuple(inverse))


def _check_associative(rows: Sequence[tuple[int, ...]], identity: int) -> None:
    """Light's associativity test over a greedy generating set.

    Let A be the set of s with (x s) y == x (s y) for all x, y.  If a and
    b are in A, so is a b:
    (x (ab)) y = ((xa) b) y = (xa)(by) = x (a (by)) = x ((ab) y).
    The identity is in A, so once every generator passes, A contains
    everything reachable from it by right multiplication by generators.
    A generator is taken greedily from the elements not reached yet, so
    a group of order n needs at most log2(n) of them (each one at least
    doubles the subgroup reached) and the test costs O(n^2 log n)
    lookups.  A failure names the triple (x, s, y).
    """
    n = len(rows)
    reached = bytearray(n)
    reached[identity] = 1
    found = [identity]
    gens: list[int] = []
    for s in range(n):
        if reached[s]:
            continue
        row_s = rows[s]
        for x, row_x in enumerate(rows):
            left = rows[row_x[s]]
            if left != tuple(map(row_x.__getitem__, row_s)):
                y = next(y for y in range(n) if left[y] != row_x[row_s[y]])
                raise NotAGroup(
                    f"associativity fails at triple ({x}, {s}, {y}): "
                    f"({x}*{s})*{y} = {left[y]} but {x}*({s}*{y}) = {row_x[row_s[y]]}"
                )
        gens.append(s)
        stack = list(found)
        while stack:
            row_x = rows[stack.pop()]
            for g in gens:
                y = row_x[g]
                if not reached[y]:
                    reached[y] = 1
                    found.append(y)
                    stack.append(y)


def from_permutation_generators(degree: int, generators: Iterable[Sequence[int]]) -> FiniteGroup:
    """Close the generators breadth-first, numbering the elements from
    the identity at 0, and return the group they generate.

    A group by construction, so the table is not validated again.  Each
    element but the identity is first reached as p g (p closed before it,
    g a generator), and as (p g) b = p (g b) its row is p's row read at
    the entries of g's row: only the generators' rows compose permutations.
    """
    gens = []
    for i, g in enumerate(generators):
        if (
            not isinstance(g, (list, tuple))
            or len(g) != degree
            or any(type(x) is not int for x in g)
            or sorted(g) != list(range(degree))
        ):
            raise NotAGroup(f"generator {i}, {echo(g)}, is not a permutation of 0..{degree - 1}")
        gens.append(tuple(g))

    # Without generators the group is trivial at any degree, and its one
    # element needs no points: the degree alone never sizes an allocation.
    identity = tuple(range(degree)) if gens else ()
    index: dict[tuple[int, ...], int] = {identity: 0}
    elements = [identity]
    # Element i > 0 is elements[parent] after gens[g], (parent, g) = steps[i - 1].
    steps = []
    # Breadth-first: the loop also visits the products appended as it runs.
    for parent, perm in enumerate(elements):
        for g, gen in enumerate(gens):
            product = tuple(map(perm.__getitem__, gen))
            if product not in index:
                if len(elements) >= DEFAULT_MAX_ORDER:
                    raise GroupTooLarge(f"generated group exceeds {DEFAULT_MAX_ORDER} elements")
                index[product] = len(elements)
                elements.append(product)
                steps.append((parent, g))

    # read[g](row) is row at the entries of g's row.  A row has n >= 2
    # entries whenever there is a step, so itemgetter returns a tuple.
    read = [
        itemgetter(*(index[tuple(map(gen.__getitem__, b))] for b in elements))
        for gen in gens
    ]
    rows = [tuple(range(len(elements)))]
    for parent, g in steps:
        rows.append(read[g](rows[parent]))
    return FiniteGroup(mult=rows, inverse=[row.index(0) for row in rows])


# ----------------------------------------------------------------------
# Conjugacy data
# ----------------------------------------------------------------------


def _classes_met(group: FiniteGroup, elements: Iterable[int]):
    """Yield ``(x, conjugates of x)`` for each element x whose class no
    earlier element meets.  The conjugates are a dict, in order of the
    first h in 0..n-1 with h x h^-1 equal to each: the one loop that
    conjugates by every element, O(n) per class met, not per element."""
    n = group.order
    met: set[int] = set()
    for x in elements:
        if x < 0 or x >= n:
            raise ValueError(f"element index {x} out of range")
        if x not in met:
            conjugates = dict.fromkeys(map(group.conjugate, range(n), repeat(x)))
            met.update(conjugates)
            yield x, conjugates


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClasses:
    class_of = [-1] * group.order
    members: list[tuple[int, ...]] = []
    for _, conjugates in _classes_met(group, (group.identity, *range(group.order))):
        orbit = tuple(sorted(conjugates))
        for y in orbit:
            class_of[y] = len(members)
        members.append(orbit)
    return ConjugacyClasses(tuple(class_of), tuple(members))


def conjugacy_closure(group: FiniteGroup, elements: Iterable[int]) -> tuple[int, ...]:
    """Smallest conjugation-closed subset containing the given elements."""
    closed: set[int] = set()
    for _, conjugates in _classes_met(group, map(int, elements)):
        closed.update(conjugates)
    return tuple(sorted(closed))


def _check_conjugation_closed(group: FiniteGroup, subset: Iterable[int]) -> tuple[int, ...]:
    """The subset as sorted distinct ints, checked to be a union of
    conjugacy classes.  The witness is the first h x h^-1 outside it, for
    the smallest member x whose class it does not hold."""
    lam = tuple(sorted(set(map(int, subset))))
    member = set(lam)
    for x, conjugates in _classes_met(group, lam):
        for y in conjugates:
            if y not in member:
                raise NotConjugationClosed(
                    f"conjugate {y} of {x} is missing from the subset"
                )
    return lam


# ----------------------------------------------------------------------
# Datum construction
# ----------------------------------------------------------------------


def class_datum(
    group: FiniteGroup,
    punctures: Mapping[str, Iterable[int]] | None = None,
) -> TqftDatum:
    """Class-space datum, built without any |G| x |G| matrix.  It equals
    the full-rank datum reduced to class sums,
    ``class_reduce(to_tqft_datum(group, punctures), group)``, the oracle
    kept in ``tests/full_rank.py``.

    With a_d the representative and C_d the d-th class, |C(x)| the
    centralizer order of x, and comm(x) = #{(a, b) : [a, b] = x}
    = sum_b |C(b)| [x b ~ b]:

    - genus tube: R[d][c] = |G| * sum over g in C_c of comm(g^-1 a_d);
    - puncture tube for a subset lam:
      R[d][c] = |C(a_d)| * #{(g, h) in C_c x lam : g h in C_d}
              = |C(a_d)| * |C_c| * #{h in lam : a_c h in C_d},
      because lam is conjugation-closed, so the count for g is a class
      function of g;
    - plain cylinder: |G| times the identity.

    The tube and disc entries are plain ``int``, so words fold over the
    integers (``tqft.fold_form``); e_G is ``LaurentPoly.const(|G|)``.
    The cost is O(k n) for the genus tube (k classes, n = |G|) plus
    O(k |lam|) per puncture, and O(n) per class it meets to check that lam
    is conjugation-closed.
    """
    n = group.order
    mult = group.mult
    inv = group.inverse
    classes = conjugacy_classes(group)
    class_of = classes.class_of
    cent = classes.centralizer_orders
    reps = classes.representatives
    k = len(classes)

    # comm is a class function: evaluate it once per representative.
    comm = [
        sum(cent[class_of[b]] for b in range(n) if class_of[mult[x][b]] == class_of[b])
        for x in reps
    ]
    genus = []
    for a in reps:
        row = [0] * k
        for c, members in enumerate(classes.members):
            row[c] = n * sum(comm[class_of[mult[inv[g]][a]]] for g in members)
        genus.append(row)

    tubes = {
        GENUS_TUBE: genus,
        IDENTITY_TUBE: [[n if c == d else 0 for c in range(k)] for d in range(k)],
    }
    for label, subset in (punctures or {}).items():
        lam = _check_conjugation_closed(group, subset)
        counts = [[0] * k for _ in range(k)]
        for c, members in enumerate(classes.members):
            row_a = mult[members[0]]
            for h in lam:
                counts[class_of[row_a[h]]][c] += len(members)
        tubes[puncture_tube(str(label))] = [
            [cent[d] * x for x in row] for d, row in enumerate(counts)
        ]

    disc = [1] + [0] * (k - 1)
    return TqftDatum(e_g=LaurentPoly.const(n), tubes=tubes, disc_in=disc, disc_out=disc)


# ----------------------------------------------------------------------
# Brute-force oracle
# ----------------------------------------------------------------------


def brute_force_count(
    group: FiniteGroup,
    genus: int,
    punctures: Sequence[Iterable[int]] = (),
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Number of tuples (a_1, b_1, ..., a_g, b_g, c_1, ..., c_s) with
    [a_1,b_1]...[a_g,b_g] c_1 ... c_s = identity and c_j in the j-th
    puncture subset.

    A forward fold over the distribution of partial products
    (``fold_slot``): each slot is a multiset of values (the commutators
    [a, b] with multiplicity for a genus slot, ``commutator_slot``; the
    subset for a puncture, ``puncture_slot``), and dist[p] counts the
    prefixes of the tuple whose product is p.  That is O((g + s) n d)
    dictionary updates, with d the number of distinct values in a slot.
    Tuples that share their first slots share the distribution after
    them, so a caller that counts many tuple shapes (``verify`` walks
    genera and puncture multisets level by level) builds each slot once
    and folds each shape one slot on from its parent's, through the same
    helpers.  The oracle uses only the multiplication table, never
    ``conjugacy_classes`` or the TQFT engine.  ``budget`` still caps the
    number of tuples, n^(2g) * prod |lam| (``check_budget``), not the
    fold's work.
    """
    if genus < 0:
        raise ValueError("genus must be >= 0")
    slots = [puncture_slot(group, subset) for subset in punctures]
    check_budget(group.order, genus, map(len, slots), budget)
    if genus:
        slots[:0] = [commutator_slot(group)] * genus
    dist = Counter({group.identity: 1})
    for slot in slots:
        dist = fold_slot(group, dist, slot)
    return dist[group.identity]


def commutator_slot(group: FiniteGroup) -> Counter:
    """The commutators [a, b] over all n^2 pairs (a, b), with
    multiplicity: the values of one genus slot of the oracle.

    By orbit-stabiliser: [a, b] = a (b a b^-1)^-1, and as b runs over the
    group, b a b^-1 runs over the class C of a, each member n / |C|
    times.  So each a in C gives [a, b] = a y for y in
    C^-1 = {x^-1 : x in C}, each n / |C| times.  The classes are found
    here, as the orbits {h a h^-1 : h in G} of the table, not through the
    engine's ``conjugacy_classes``: sum |C|^2 + n k table reads for k
    classes, not n^2.
    """
    n = group.order
    mult, inverse = group.mult, group.inverse
    slot: Counter = Counter()
    met = bytearray(n)
    for a in range(n):
        if met[a]:
            continue
        orbit = {mult[mult[h][a]][inv_h] for h, inv_h in enumerate(inverse)}
        inverses = [inverse[x] for x in orbit]
        products: Counter = Counter()
        for x in orbit:
            met[x] = 1
            products.update(map(mult[x].__getitem__, inverses))
        weight = n // len(orbit)
        for value, count in products.items():
            slot[value] += weight * count
    return slot


def puncture_slot(group: FiniteGroup, subset: Iterable[int]) -> Counter:
    """The values of one puncture slot of the oracle: the subset, each
    element once, checked to be closed under conjugation."""
    return Counter(_check_conjugation_closed(group, subset))


def check_budget(order: int, genus: int, sizes: Iterable[int], budget: int) -> None:
    """Raise ``BudgetExceeded`` if the oracle's tuple count
    order^(2 genus) * prod sizes, one size per puncture subset, exceeds
    the budget."""
    cost = order ** (2 * genus)
    for size in sizes:
        cost *= size
    if cost > budget:
        raise BudgetExceeded(
            f"enumeration of {cost} tuples exceeds the budget of {budget}"
        )


def fold_slot(group: FiniteGroup, dist: Counter, slot: Counter) -> Counter:
    """The distribution of partial products one slot further: each prefix
    product p, counted dist[p] times, times each value x of the slot,
    counted slot[x] times."""
    mult = group.mult
    nxt: Counter = Counter()
    for prefix, count in dist.items():
        row = mult[prefix]
        for x, m in slot.items():
            nxt[row[x]] += count * m
    return nxt


# ----------------------------------------------------------------------
# Group files
# ----------------------------------------------------------------------


def group_from_json_dict(data: dict) -> FiniteGroup:
    if not isinstance(data, dict):
        raise NotAGroup("group file must contain a JSON object")
    if "table" in data:
        if "degree" in data or "generators" in data:
            raise NotAGroup("group file needs either 'table' or 'degree' + 'generators', not both")
        table = data["table"]
        if not isinstance(table, list):
            raise NotAGroup("'table' must be a list of rows")
        n = len(table)
        if n > DEFAULT_MAX_ORDER:
            raise GroupTooLarge(
                f"table of order {n} exceeds the bound of {DEFAULT_MAX_ORDER} elements "
                f"({n * n} entries)"
            )
        return from_cayley_table(table)
    if "degree" in data and "generators" in data:
        degree, generators = data["degree"], data["generators"]
        if type(degree) is not int or degree < 0:
            raise NotAGroup(f"'degree' must be a nonnegative integer, got {echo(degree)}")
        if not isinstance(generators, list):
            raise NotAGroup(f"'generators' must be a list of permutations, got {echo(generators)}")
        return from_permutation_generators(degree, generators)
    raise NotAGroup("group file needs either 'table' or 'degree' + 'generators'")


def load_group(path: str | os.PathLike[str]) -> FiniteGroup:
    """The group in a group file, refused with ``NotAGroup`` (or
    ``GroupTooLarge``) as ``group_from_json_dict`` and ``read_json`` word it."""
    return group_from_json_dict(read_json(path, "group", NotAGroup))
