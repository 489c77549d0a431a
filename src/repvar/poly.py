"""Exact arithmetic in Z[u^+-1, v^+-1], the value ring of E-polynomials.

A ``LaurentPoly`` is stored sparsely as a map from exponent pairs (a, b)
to nonzero integer coefficients; coefficients are plain Python ints and
never overflow.  It is the ring of parsing and printing, of the e_G
division, and of data that are neither ``int`` (a finite group's class
datum) nor dense in q (``QPoly`` below), such as a constant datum file.
The distinguished element q = u*v (the class of the affine line) gets
special treatment in parsing and printing because every result of
interest downstream is a polynomial in q.

``QPoly`` is the subring Z[q^+-1] of diagonal polynomials, each packed
into one integer: a lowest exponent and the polynomial's value at
q = 2^bits, with ``bits`` wide enough that the coefficients are the
balanced base-2^bits digits (Kronecker substitution).  A product then
costs a few shifts and additions of big integers per coefficient of the
shorter factor, and a sum one shift and one addition, each a single
pass in C rather than one Python operation per coefficient.  The
spacing belongs to each value and widens when a result would outgrow
it.  ``QPoly`` has only ``+``, ``*``, unary ``-`` and the conversions to
and from ``LaurentPoly``: a value comes from ``QPoly.from_laurent`` or
from a sum, product or negation.  The engine folds a datum whose entries
are all polynomials in q over it, and converts back to ``LaurentPoly``
for division and output; parsing and printing stay with ``LaurentPoly``.

Polynomial text is signed terms, each an optional leading integer and
any number of ``u``, ``v`` or ``q`` factors with an optional exponent
``^k`` or ``^-k``, juxtaposed or joined by ``*``.  Whitespace may
separate tokens but not split one, and digits are decimal.

>>> (Q * (Q - 1)).to_text()
'q^2 - q'
>>> parse_poly("q^3 - q^2") == Q**3 - Q**2
True
>>> parse_poly("q² - q")
Traceback (most recent call last):
repvar.poly.PolyParseError: unexpected character '²' at position 1
>>> (Q**3 - Q**2).exact_div(Q**2).to_text()
'q - 1'
>>> square = QPoly.from_laurent(Q - 1) * QPoly.from_laurent(Q - 1)
>>> square.to_laurent().to_text()
'q^2 - 2*q + 1'
>>> square.low, square.coeffs, square.bits
(0, [1, -2, 1], 24)
>>> square.packed == 1 - 2 * 2**24 + 2**48
True
"""

import re
import sys
from bisect import insort
from collections.abc import Iterable, Iterator, Mapping

__all__ = [
    "LaurentPoly",
    "QPoly",
    "NonExactDivision",
    "PolyParseError",
    "ZeroBase",
    "parse_poly",
    "ZERO",
    "ONE",
    "U",
    "V",
    "Q",
]


class NonExactDivision(ArithmeticError):
    """The requested quotient does not exist in Z[u^+-1, v^+-1], or is
    longer than the caller allowed."""


class ZeroBase(ZeroDivisionError):
    """A negative exponent was evaluated at base 0."""


class PolyParseError(ValueError):
    """Malformed polynomial text."""


def _order_key(exponents: tuple[int, int]) -> tuple[int, int]:
    # Total monomial order used for display and division: by total degree
    # a+b, ties broken by the u-exponent.
    a, b = exponents
    return (a + b, a)


class LaurentPoly:
    """Immutable sparse Laurent polynomial in u and v over the integers.

    Every instance is built by ``__init__``, which makes exponents and
    coefficients ``int`` and drops zero coefficients, so equality is plain
    structural equality and hashing is safe.  All operations return new
    instances; nothing mutates.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean = {(int(a), int(b)): int(c) for (a, b), c in (terms or {}).items() if c}
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        # Pickling and copying rebuild through the constructor, not by
        # restoring the slot through the refusing __setattr__.
        return (LaurentPoly, (self._terms,))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def const(cls, n: int) -> "LaurentPoly":
        return cls({(0, 0): int(n)})

    @classmethod
    def monomial(cls, a: int, b: int, coeff: int = 1) -> "LaurentPoly":
        return cls({(a, b): coeff})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int, int]]) -> "LaurentPoly":
        """Build from (a, b, coeff) triples, merging repeated exponents."""
        acc: dict[tuple[int, int], int] = {}
        for a, b, c in terms:
            key = (int(a), int(b))
            acc[key] = acc.get(key, 0) + int(c)
        return cls(acc)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Terms in decreasing (a+b, a) order."""
        return iter(sorted(self._terms.items(), key=lambda t: _order_key(t[0]), reverse=True))

    def exponents(self):
        """The exponent pairs (a, b) of the terms, in no particular order:
        a view of them, without the sort that ``items`` makes."""
        return self._terms.keys()

    def is_constant(self) -> bool:
        return all(key == (0, 0) for key in self._terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get((0, 0), 0)

    def is_diagonal(self) -> bool:
        """True when every monomial is a power of q = uv (exponents a == b)."""
        return all(a == b for a, b in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # ------------------------------------------------------------------
    # Ring operations
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(value: "LaurentPoly | int") -> "LaurentPoly | None":
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly.const(value)
        return None

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for key, c in rhs._terms.items():
            out[key] = out.get(key, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in rhs._terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative powers are not supported; exponent must be >= 0")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def exact_div(self, divisor: "LaurentPoly", max_terms: int | None = None) -> "LaurentPoly":
        """Return the unique quotient when ``divisor`` divides exactly.

        Every divisor goes through one loop: leading-term elimination
        under the (a+b, a) order.  Both operands are first shifted by unit
        monomials so all exponents are nonnegative; this keeps the
        elimination inside Z[u, v], where the order is a well-order and
        termination is guaranteed.  A single-term divisor (a unit
        monomial, an integer) becomes one term at (0, 0), so each step
        only divides a coefficient.  The remainder's exponents are kept in
        one list sorted by the order: each step pops the leading one
        (skipping any that has cancelled) and inserts by bisection each
        one it adds, all below the one removed, so a step costs
        O(|divisor| log |remainder|), not a scan of the remainder.  Any
        step that cannot be eliminated exactly raises NonExactDivision,
        and so does a quotient that grows past ``max_terms`` terms, when
        that is given.
        """
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return ZERO

        sa = min(a for a, _ in self._terms)
        sb = min(b for _, b in self._terms)
        da = min(a for a, _ in divisor._terms)
        db = min(b for _, b in divisor._terms)

        rem = {(a - sa, b - sb): c for (a, b), c in self._terms.items()}
        den = {(a - da, b - db): c for (a, b), c in divisor._terms.items()}
        lead_d = max(den, key=_order_key)
        lead_dc = den[lead_d]

        # The keys of rem, and keys cancelled since, in ascending order.
        order = sorted(rem, key=_order_key)
        quo: dict[tuple[int, int], int] = {}
        while order:
            lead_r = order.pop()
            if lead_r not in rem:
                continue
            ea = lead_r[0] - lead_d[0]
            eb = lead_r[1] - lead_d[1]
            if ea < 0 or eb < 0:
                raise NonExactDivision(f"({self}) is not divisible by ({divisor})")
            c, residue = divmod(rem[lead_r], lead_dc)
            if residue:
                raise NonExactDivision(f"({self}) is not divisible by ({divisor})")
            quo[(ea, eb)] = c
            if max_terms is not None and len(quo) > max_terms:
                raise NonExactDivision(f"({self}) / ({divisor}) has more than {max_terms} terms")
            for (na, nb), nc in den.items():
                key = (na + ea, nb + eb)
                value = rem.get(key, 0) - c * nc
                if value:
                    if key not in rem:
                        insort(order, key, key=_order_key)
                    rem[key] = value
                else:
                    rem.pop(key, None)

        shift_a = sa - da
        shift_b = sb - db
        return LaurentPoly({(a + shift_a, b + shift_b): c for (a, b), c in quo.items()})

    def evaluate(self, u0: "int | Fraction", v0: "int | Fraction") -> "Fraction":
        """Exact rational value at (u0, v0)."""
        # Imported here: nothing else needs fractions, and loading it (with
        # decimal) would add milliseconds to every start of the CLI.
        from fractions import Fraction

        u0 = Fraction(u0)
        v0 = Fraction(v0)
        if u0 == 0 and any(a < 0 for a, _ in self._terms):
            raise ZeroBase("u = 0 but a negative u-exponent occurs")
        if v0 == 0 and any(b < 0 for _, b in self._terms):
            raise ZeroBase("v = 0 but a negative v-exponent occurs")
        total = Fraction(0)
        for (a, b), c in self._terms.items():
            total += c * u0**a * v0**b
        return total

    # ------------------------------------------------------------------
    # Equality and hashing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # A constant equals its int, so it must hash like it.
        terms = self._terms
        if terms.keys() <= {(0, 0)}:
            return hash(terms.get((0, 0), 0))
        return hash(frozenset(terms.items()))

    # ------------------------------------------------------------------
    # Text and JSON forms
    # ------------------------------------------------------------------

    @staticmethod
    def _monomial_text(a: int, b: int, as_q: bool) -> str:
        if (a, b) == (0, 0):
            return ""
        if as_q:
            return "q" if a == 1 else f"q^{a}"
        factors = []
        if a:
            factors.append("u" if a == 1 else f"u^{a}")
        if b:
            factors.append("v" if b == 1 else f"v^{b}")
        return "*".join(factors)

    def to_text(self, force_uv: bool = False) -> str:
        """Human-readable form; diagonal polynomials print in q by default."""
        if not self._terms:
            return "0"
        as_q = self.is_diagonal() and not force_uv
        pieces: list[str] = []
        for (a, b), c in self.items():
            mono = self._monomial_text(a, b, as_q)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{_decimal(mag)}*{mono}"
            else:
                body = _decimal(mag)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(pieces)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()!r})"

    def to_json_terms(self) -> list[list]:
        """JSON form: list of [a, b, coefficient-as-decimal-string]."""
        return [[a, b, _decimal(c)] for (a, b), c in self.items()]


def _decimal(n: int) -> str:
    """``str(n)`` at any length.  CPython refuses to convert an int of more
    than ``sys.get_int_max_str_digits()`` digits, to bound the quadratic
    cost of converting untrusted input; a value repvar computed is not
    that, so the limit is lifted for this one conversion."""
    try:
        return str(n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(limit)


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
U = LaurentPoly.monomial(1, 0)
V = LaurentPoly.monomial(0, 1)
Q = LaurentPoly.monomial(1, 1)


def _offsets(n: int, k: int, top: int) -> int:
    """Half of a base of ``top`` bytes in each of ``n`` digits of ``k``
    bytes: the sum of 2^(8*top - 1 + 8*k*i) for i < n."""
    return int.from_bytes((bytes(k - top) + b"\x80" + bytes(top - 1)) * n, "big")


def _spacing(bound: int) -> int:
    """Digit width in bits for digits of magnitude up to ``bound``: a
    multiple of 8 with bound < 2^(bits - 1), plus headroom, so that a
    chain of products and sums outgrows it only now and then."""
    need = bound.bit_length() + 1
    return (need + 16 + need // 8 + 7) & ~7


class QPoly:
    """Laurent polynomial in q over the integers, packed into one integer.

    A value is ``low`` and ``packed``, the sum of c_i * 2^(bits * i) over
    the coefficients c_i of q^(low + i): the polynomial evaluated at
    q = 2^bits (Kronecker substitution).  ``bits`` is a multiple of 8,
    and ``bound`` is at least every |c_i| and less than 2^(bits - 1), so
    the balanced base-2^bits digits of ``packed`` are the coefficients.
    The lowest digit is nonzero (zero is packed 0 with low 0), so equal
    polynomials have equal ``low``.  The spacing belongs to the value: a
    product or sum whose bound would outgrow it re-spaces its operand
    first.  Values from data come in through ``from_laurent``, the rest
    from ``+``, ``*`` and unary ``-``; the constructor stores a packed
    form as given.
    ``coeffs`` decodes the coefficient list, which starts and ends
    nonzero.  No operation mutates an instance.  Two ``QPoly`` are equal
    when their ``low`` and their digits are, at any spacing, and a
    ``QPoly`` equals the ``LaurentPoly`` it converts to.
    """

    __slots__ = ("low", "packed", "bits", "bound", "_digits")

    def __init__(self, low: int, packed: int, bits: int, bound: int, digits: tuple | None = None):
        """Store the packed form as given; values from data come in through
        ``from_laurent``.  ``digits``, when known, is the decoded
        coefficient tuple, kept so that it is not decoded again."""
        self.low = low
        self.packed = packed
        self.bits = bits
        self.bound = bound
        self._digits = digits  # decoded coefficients, once asked for

    def _count(self) -> int:
        """Number of digits.  The top one is nonzero and under half the
        base in magnitude, so |packed| has (n-1)*bits to n*bits - 1 bits."""
        return self.packed.bit_length() // self.bits + 1 if self.packed else 0

    def _bytes(self) -> bytes:
        """The digits offset by half the base, each bits/8 bytes, top digit
        first and big-endian, so that bytes compare as the digits do."""
        n, k = self._count(), self.bits >> 3
        return (self.packed + _offsets(n, k, k)).to_bytes(n * k, "big")

    def _decode(self) -> tuple:
        """The balanced digits, lowest first: each chunk of ``_bytes`` less
        half the base."""
        if self._digits is None:
            buf, k = self._bytes(), self.bits >> 3
            half, from_bytes = 1 << (self.bits - 1), int.from_bytes
            self._digits = tuple(from_bytes(buf[j - k:j], "big") - half for j in range(len(buf), 0, -k))
        return self._digits

    @property
    def coeffs(self) -> list[int]:
        """``coeffs[i]`` is the coefficient of q^(low + i); the list is
        empty for zero and otherwise starts and ends nonzero."""
        return list(self._decode())

    def _respaced(self, bits: int) -> "QPoly":
        """The same value with digits ``bits`` wide, no narrower than now,
        and its bound tightened to the largest |coefficient|.  Each digit,
        offset by half the old base, is padded with zero bytes, and the
        old offsets are taken off again.  The largest and smallest offset
        digits are found by comparing their bytes."""
        k, wide_k = self.bits >> 3, bits >> 3
        old = self._bytes()
        chunks = [old[j:j + k] for j in range(0, len(old), k)]
        pad = bytes(wide_k - k)
        packed = int.from_bytes(pad + pad.join(chunks), "big") - _offsets(len(chunks), wide_k, k)
        half = 1 << (self.bits - 1)
        bound = max(int.from_bytes(max(chunks), "big") - half, half - int.from_bytes(min(chunks), "big"))
        return QPoly(self.low, packed, bits, bound, self._digits)

    @classmethod
    def from_laurent(cls, poly: LaurentPoly) -> "QPoly":
        """Pack the coefficients of ``poly`` from its lowest exponent to its
        highest.  A ``LaurentPoly`` holds no zero terms, so both ends of
        that list are nonzero."""
        if not poly.is_diagonal():
            raise ValueError(f"not a polynomial in q: {poly}")
        if not poly:
            return cls(0, 0, _spacing(0), 0, ())
        exponents = [a for a, _ in poly._terms]
        low = min(exponents)
        coeffs = [0] * (max(exponents) - low + 1)
        for (a, _), c in poly._terms.items():
            coeffs[a - low] = c
        bound = max(map(abs, coeffs))
        bits = _spacing(bound)
        k, half = bits >> 3, 1 << (bits - 1)
        offset = b"".join([(c + half).to_bytes(k, "big") for c in reversed(coeffs)])
        packed = int.from_bytes(offset, "big") - _offsets(len(coeffs), k, k)
        return cls(low, packed, bits, bound, tuple(coeffs))

    def to_laurent(self) -> LaurentPoly:
        """The decoded digits as the terms of a ``LaurentPoly``."""
        return LaurentPoly({(i, i): c for i, c in enumerate(self._decode(), self.low)})

    def __add__(self, other: "QPoly") -> "QPoly":
        if not other.packed:
            return self
        if not self.packed:
            return other
        bits = max(self.bits, other.bits)
        if (self.bound + other.bound) >> (bits - 1):
            bits = _spacing(self.bound + other.bound)
        if self.bits != bits:
            self = self._respaced(bits)
        if other.bits != bits:
            other = other._respaced(bits)
        first, second = (self, other) if self.low <= other.low else (other, self)
        low = first.low
        if second.low != low:
            packed = first.packed + (second.packed << ((second.low - low) * bits))
        else:
            # Only equal lows can cancel, so only here can the lowest
            # digits be zero.  The test masks |packed|: masking a
            # negative int would convert all of it to two's complement.
            packed = first.packed + second.packed
            if not packed:
                return QPoly(0, 0, bits, 0)
            if not abs(packed) & ((1 << bits) - 1):
                zeros = ((packed & -packed).bit_length() - 1) // bits
                packed >>= zeros * bits
                low += zeros
        return QPoly(low, packed, bits, self.bound + other.bound)

    def __neg__(self) -> "QPoly":
        """The digits negated: the same spacing and bound, the packed
        integer negated."""
        digits = self._digits and tuple(-c for c in self._digits)
        return QPoly(self.low, -self.packed, self.bits, self.bound, digits)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if not self.packed:
            return self
        if not other.packed:
            return other
        short, long = (self, other) if self._count() <= other._count() else (other, self)
        digits = short._decode()
        l1 = sum(map(abs, digits))
        if (l1 * long.bound) >> (long.bits - 1):
            long = long._respaced(_spacing(l1 * long.bound))
        bits, x = long.bits, long.packed
        # Horner over the short operand's digits, top first.  Z[q] has no
        # zero divisors, so the product's lowest digit is nonzero.
        top = digits[-1]
        acc = x if top == 1 else top * x
        for c in reversed(digits[:-1]):
            acc <<= bits
            if c == 1:
                acc += x
            elif c == -1:
                acc -= x
            elif c:
                acc += c * x
        return QPoly(short.low + long.low, acc, bits, l1 * long.bound)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.low == other.low and self._decode() == other._decode()
        if isinstance(other, LaurentPoly):
            return self.to_laurent() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"QPoly({self.to_laurent().to_text()!r})"


# One token after optional whitespace: a sign, a '*', a run of decimal
# digits, a variable with an optional exponent, or any other character,
# which is an error.  Compiled on first use through re's own cache.
_TOKEN = (
    r"\s*(?:(?P<sign>[-+])|(?P<star>\*)|(?P<int>\d+)"
    r"|(?P<var>[uvq])(?:\^(?P<exp>-?\d*))?|(?P<bad>\S))"
)


def parse_poly(text: str) -> LaurentPoly:
    """Parse polynomial text, whose grammar the module docstring gives.

    ``2*q^2 - q`` and ``2q^2 - q`` parse identically, as do ``u^2*v^3``
    and ``u^2v^3``.  The whole text is scanned before any term is read,
    so a bad character anywhere wins over a misplaced token before it.
    """
    terms: list[tuple[int, list]] = []  # (sign, factor tokens) per term
    for m in re.finditer(_TOKEN, text):
        if m["bad"]:
            at = m.start("bad")
            raise PolyParseError(f"unexpected character {m['bad']!r} at position {at}")
        if m["exp"] in ("", "-"):
            at = m.start("var")
            raise PolyParseError(f"missing exponent after '^' at position {at}")
        if m["sign"] or not terms:
            terms.append((-1 if m["sign"] == "-" else 1, []))
        if not m["sign"]:
            terms[-1][1].append(m)
    if not terms:
        raise PolyParseError("empty polynomial text")

    triples: list[tuple[int, int, int]] = []
    for sign, factors in terms:
        if not factors:
            raise PolyParseError("empty term")
        coeff, a, b = 1, 0, 0
        for i, m in enumerate(factors):
            if m["star"]:
                if i == 0 or factors[i - 1]["star"]:
                    raise PolyParseError("misplaced '*'")
            elif m["int"]:
                if i:  # after a factor: a leading '*' was refused above
                    raise PolyParseError("integer may only lead a term")
                coeff = _digit_run(m, "int")
            else:
                exp = _digit_run(m, "exp") if m["exp"] else 1
                if m["var"] != "v":
                    a += exp
                if m["var"] != "u":
                    b += exp
        if factors[-1]["star"]:
            raise PolyParseError("trailing '*'")
        triples.append((a, b, sign * coeff))
    return LaurentPoly.from_terms(triples)


def _digit_run(m: re.Match, group: str) -> int:
    """The integer spelt by a run of digits in polynomial text.  Input is
    held to CPython's limit on the length of a decimal string."""
    try:
        return int(m[group])
    except ValueError:
        raise PolyParseError(
            f"integer of {len(m[group].lstrip('-'))} digits at position {m.start(group)} "
            f"is longer than the {sys.get_int_max_str_digits()} digits allowed"
        ) from None
