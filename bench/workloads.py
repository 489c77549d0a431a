"""Seeded inputs for the repvar benchmark, and the oracles that check them.

Nothing here imports repvar.  Groups are closed from permutation
generators by this file's own code; the expected answers come from a
class convolution over that multiplication table, from an integer
binomial expansion of the affc closed form, and from counting
conjugacy classes.  repvar only ever sees the group files written from
these groups.

Each workload is a sequence of rounds.  A round is a fixed mix of
request kinds (its cells) in a seeded order; the seed also picks the
relabelling of each group and the element named by each puncture.  The
amount of work in round r does not depend on the seed, so runs with
different seeds ask for the same work in different forms.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

GROUP = "@GROUP@"  # placeholder in Request.args for the group file path
VERIFY_BUDGET = 10**9


def _compose(p: tuple, q: tuple) -> tuple:
    """p after q."""
    return tuple(p[x] for x in q)


@dataclass(frozen=True)
class Group:
    """A permutation group with its own multiplication table.

    Elements are the sorted permutations, so the identity is index 0;
    ``table[a][b]`` is the index of a after b.
    """

    name: str
    degree: int
    generators: tuple
    elements: tuple
    table: tuple
    inverse: tuple
    classes: tuple

    @property
    def order(self) -> int:
        return len(self.elements)


def make_group(name: str, degree: int, generators, order: int) -> Group:
    gens = tuple(tuple(g) for g in generators)
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        frontier = [
            p for p in {_compose(g, x) for x in frontier for g in gens} if p not in seen
        ]
        seen.update(frontier)
    if len(seen) != order:
        raise ValueError(f"{name}: generated {len(seen)} elements, expected {order}")
    elements = tuple(sorted(seen))
    index = {p: i for i, p in enumerate(elements)}
    table = tuple(tuple(index[_compose(a, b)] for b in elements) for a in elements)
    inverse = tuple(row.index(0) for row in table)
    classes = []
    assigned: set[int] = set()
    for x in range(len(elements)):
        if x not in assigned:
            cls = frozenset(table[table[h][x]][inverse[h]] for h in range(len(elements)))
            assigned |= cls
            classes.append(tuple(sorted(cls)))
    return Group(name, degree, gens, elements, table, inverse, tuple(classes))


def _cycle(n: int) -> tuple:
    return tuple((i + 1) % n for i in range(n))


def _dihedral(m: int) -> list:
    return [_cycle(m), tuple((-i) % m for i in range(m))]


def _affine_line(p: int, a: int) -> list:
    """AGL1(F_p) generated by x -> x + 1 and x -> a x, a primitive mod p."""
    return [_cycle(p), tuple((a * x) % p for x in range(p))]


def _quaternion() -> list:
    """Q8 acting on itself by left multiplication by i and by j."""
    units = [tuple(s if k == axis else 0 for k in range(4)) for axis in range(4) for s in (1, -1)]

    def hamilton(a, b):
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    return [tuple(units.index(hamilton(units[g], u)) for u in units) for g in (2, 4)]


# name: (degree, generators, order)
GROUP_SPECS = {
    "z2": (2, [_cycle(2)], 2),
    "z3": (3, [_cycle(3)], 3),
    "z4": (4, [_cycle(4)], 4),
    "z2xz2": (4, [(1, 0, 3, 2), (2, 3, 0, 1)], 4),
    "s3": (3, [(1, 0, 2), (1, 2, 0)], 6),
    "d4": (4, _dihedral(4), 8),
    "q8": (8, _quaternion(), 8),
    "a4": (4, [(1, 2, 0, 3), (1, 0, 3, 2)], 12),
    "d6": (6, _dihedral(6), 12),
    "agl1_5": (5, _affine_line(5, 2), 20),
    "s4": (4, [(1, 0, 2, 3), (1, 2, 3, 0)], 24),
    "agl1_7": (7, _affine_line(7, 3), 42),
    "z2xs4": (6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)], 48),
    "a5": (5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], 60),
    "d36": (36, _dihedral(36), 72),
}

_GROUPS: dict[str, Group] = {}


def group(name: str) -> Group:
    if name not in _GROUPS:
        _GROUPS[name] = make_group(name, *GROUP_SPECS[name])
    return _GROUPS[name]


# ----------------------------------------------------------------------
# Group files
# ----------------------------------------------------------------------


def relabelled_table(g: Group, rng: random.Random, keep=()) -> tuple[dict, list]:
    """Table file under a random relabelling that puts neither the identity
    nor any element of ``keep`` at index 0.

    Returns the file contents and ``label``, where ``label[x]`` is the
    file index of element x.
    """
    label = list(range(g.order))
    while 0 in (label[x] for x in (0, *keep)):
        rng.shuffle(label)
    table = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            table[label[a]][label[b]] = label[g.table[a][b]]
    return {"table": table}, label


def relabelled_generators(g: Group, rng: random.Random) -> dict:
    """Generator file with the points renamed at random."""
    rename = list(range(g.degree))
    rng.shuffle(rename)
    gens = []
    for p in g.generators:
        image = [0] * g.degree
        for x in range(g.degree):
            image[rename[x]] = rename[p[x]]
        gens.append(image)
    return {"degree": g.degree, "generators": gens}


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def hom_count(g: Group, genus: int, punctures=()) -> int:
    """#{(a1, b1, ..., ag, bg, c1, ..., cs) : [a1,b1]...[ag,bg] c1...cs = 1}
    with c_j in the j-th subset, by convolving class functions over the
    group's own table, O(n^2) per factor."""
    n, t, inv = g.order, g.table, g.inverse
    comm = [0] * n
    for a in range(n):
        for b in range(n):
            comm[t[t[t[a][b]][inv[a]]][inv[b]]] += 1
    factors = [comm] * genus
    for subset in punctures:
        indicator = [0] * n
        for x in subset:
            indicator[x] = 1
        factors.append(indicator)
    dist = [1] + [0] * (n - 1)
    for f in factors:
        nxt = [0] * n
        for x, dx in enumerate(dist):
            if dx:
                row = t[x]
                for y, fy in enumerate(f):
                    if fy:
                        nxt[row[y]] += dx * fy
        dist = nxt
    return dist[0]


def affc_terms(genus: int) -> dict:
    """q^(2g-1) ((q-1)^(2g) + q - 1) as {(k, k): coefficient}."""
    coeffs = {j: math.comb(2 * genus, j) * (-1) ** (2 * genus - j) for j in range(2 * genus + 1)}
    coeffs[1] += 1
    coeffs[0] -= 1
    shift = 2 * genus - 1
    return {(j + shift, j + shift): c for j, c in coeffs.items() if c}


def verify_rows(g: Group, max_genus: int, max_punctures: int, budget: int) -> tuple[int, int]:
    """Number of PASS and SKIP rows a complete finite verify must print:
    one check per genus and multiset of classes, skipped when the
    brute-force cost n^(2g) * prod |class| exceeds the budget."""
    sizes = [len(c) for c in g.classes]
    passes = skips = 0
    for genus in range(max_genus + 1):
        for s in range(max_punctures + 1):
            for combo in combinations_with_replacement(sizes, s):
                if g.order ** (2 * genus) * math.prod(combo) > budget:
                    skips += 1
                else:
                    passes += 1
    return passes, skips


@dataclass
class Request:
    """One CLI invocation: its arguments (with GROUP standing for the
    group file), the file contents, and what the oracle expects."""

    args: list
    group_file: dict | None
    kind: str  # "count", "affc" or "verify"
    expect: object
    class_count: int  # conjugacy classes of the group; 0 without one
    meta: dict


def check(req: Request, exit_code: int, stdout: str) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if req.kind == "count":
        got = stdout.strip()
        return None if got == str(req.expect) else f"printed {got[:80]!r}, expected {req.expect}"
    if req.kind == "affc":
        try:
            terms = json.loads(stdout)
            got = {(int(a), int(b)): int(c) for a, b, c in terms}
        except (ValueError, TypeError) as exc:
            return f"unreadable json terms: {exc}"
        if len(got) != len(terms):
            return "repeated exponent in json terms"
        return None if got == req.expect else "terms differ from the binomial expansion"
    passes, skips = req.expect
    statuses = [line.rsplit(" ... ", 1)[-1] for line in stdout.splitlines() if line.startswith("CHECK ")]
    summary = f"SUMMARY: {passes} passed, 0 failed, {skips} skipped"
    counted = (statuses.count("PASS"), statuses.count("SKIP"), len(statuses))
    if counted != (passes, skips, passes + skips) or summary not in stdout.splitlines():
        return f"rows PASS/SKIP/all {counted}, expected {passes}/{skips}/{passes + skips}"
    return None


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

COMPUTE_POOL = ("s3", "q8", "a4", "d6", "agl1_5", "s4", "agl1_7", "z2xs4", "a5", "d36")
VERIFY_POOL = ("z2", "z3", "z4", "z2xz2", "s3", "d4", "q8", "a4", "d6")
AFFC_MAX_GENUS = 200
AFFC_STRATUM = 8
# Offset inside each stratum, by round: every prefix of two rounds averages
# the middle of the strata, and eight rounds cover every genus in 1..200.
AFFC_OFFSETS = (3, 4, 2, 5, 1, 6, 0, 7)


def _compute_round(seed: int, r: int) -> list:
    """Every (group, genus 0..2) once.  The puncture count and the puncture
    classes rotate with the cell and the round, not the seed, so every
    seed sends the same mix of work; the seed picks the element of each
    class, the labelling and the order.  Groups without punctures go in
    as permutation generators, the rest as tables."""
    rng = random.Random(f"finite-compute:{seed}:{r}")
    reqs = []
    for gi, name in enumerate(COMPUTE_POOL):
        g = group(name)
        nontrivial = g.classes[1:]  # classes[0] is the identity's
        for genus in range(3):
            npunct = (gi + genus + r) % 3
            args = ["compute", "--backend", "finite", "--group", GROUP, "--genus", str(genus)]
            classes = [nontrivial[(gi + genus + r + j) % len(nontrivial)] for j in range(npunct)]
            reps = [rng.choice(c) for c in classes]
            if npunct == 0:
                contents, encoding = relabelled_generators(g, rng), "generators"
            else:
                # A puncture element's index is neither 0 nor the identity's,
                # so it names the same element after repvar swaps those two.
                contents, label = relabelled_table(g, rng, keep=reps)
                encoding = "table"
                for x in reps:
                    args += ["--puncture", f"rep={label[x]}"]
            meta = {"group": name, "order": g.order, "genus": genus, "encoding": encoding,
                    "punctures": [len(c) for c in classes]}
            reqs.append(Request(args, contents, "count", hom_count(g, genus, classes), len(g.classes), meta))
    rng.shuffle(reqs)
    return reqs


def _verify_round(seed: int, r: int) -> list:
    """Each pool group once as a relabelled table, plus S3 as generators."""
    rng = random.Random(f"finite-verify:{seed}:{r}")
    reqs = []
    for name, encoding in [(n, "table") for n in VERIFY_POOL] + [("s3", "generators")]:
        g = group(name)
        contents = relabelled_table(g, rng)[0] if encoding == "table" else relabelled_generators(g, rng)
        args = ["verify", "--backend", "finite", "--group", GROUP, "--max-genus", "2",
                "--max-punctures", "2", "--budget", str(VERIFY_BUDGET)]
        expect = verify_rows(g, 2, 2, VERIFY_BUDGET)
        meta = {"group": name, "order": g.order, "encoding": encoding}
        reqs.append(Request(args, contents, "verify", expect, len(g.classes), meta))
    rng.shuffle(reqs)
    return reqs


def _affc_round(seed: int, r: int) -> list:
    """One genus from each of the 25 strata of width AFFC_STRATUM in 1..200;
    the seed picks the order."""
    rng = random.Random(f"affc-genus:{seed}:{r}")
    reqs = []
    for start in range(1, AFFC_MAX_GENUS + 1, AFFC_STRATUM):
        genus = start + AFFC_OFFSETS[r % len(AFFC_OFFSETS)]
        args = ["compute", "--backend", "affc", "--genus", str(genus), "--format", "json"]
        reqs.append(Request(args, None, "affc", affc_terms(genus), 0, {"genus": genus}))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {
    "finite-compute": _compute_round,
    "finite-verify": _verify_round,
    "affc-genus": _affc_round,
}


def round_requests(workload: str, seed: int, r: int) -> list:
    return WORKLOADS[workload](seed, r)
