"""Exact arithmetic in Z[u^+-1, v^+-1], the value ring of E-polynomials.

A ``LaurentPoly`` is stored sparsely as a map from exponent pairs (a, b)
to nonzero integer coefficients; coefficients are plain Python ints and
never overflow.  The distinguished element q = u*v (the class of the
affine line) gets special treatment in parsing and printing because every
result of interest downstream is a polynomial in q.

``QPoly`` is the subring Z[q^+-1] of diagonal polynomials in dense form:
a lowest exponent and a list of coefficients.  It has only ``+``, ``*``
and the conversions to and from ``LaurentPoly``.  The engine folds a
datum whose entries are all polynomials in q over it, and converts back
to ``LaurentPoly`` for division and output; parsing and printing stay
with ``LaurentPoly``.

>>> (Q * (Q - 1)).to_text()
'q^2 - q'
>>> parse_poly("q^3 - q^2") == Q**3 - Q**2
True
>>> (Q**3 - Q**2).exact_div(Q**2).to_text()
'q - 1'
>>> square = QPoly.from_laurent(Q - 1) * QPoly.from_laurent(Q - 1)
>>> square.to_laurent().to_text()
'q^2 - 2*q + 1'
"""

from __future__ import annotations

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
    """The requested quotient does not exist in Z[u^+-1, v^+-1]."""


class ZeroBase(ZeroDivisionError):
    """A negative exponent was evaluated at base 0."""


class PolyParseError(ValueError):
    """Malformed polynomial text or JSON term list."""


def _order_key(exponents: tuple[int, int]) -> tuple[int, int]:
    # Total monomial order used for display and division: by total degree
    # a+b, ties broken by the u-exponent.
    a, b = exponents
    return (a + b, a)


class LaurentPoly:
    """Immutable sparse Laurent polynomial in u and v over the integers.

    Instances are canonical (no zero coefficients are stored), so equality
    is plain structural equality and hashing is safe.  All operations
    return new instances; nothing mutates.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (a, b), c in terms.items():
                if c:
                    clean[(int(a), int(b))] = int(c)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _canonical(cls, terms: dict[tuple[int, int], int]) -> "LaurentPoly":
        """Wrap a dict that is already canonical (int exponents, no zero
        coefficients) without copying or re-checking it.  The ring
        operations build their results this way; ``__init__`` would
        re-run ``int()`` on every exponent and coefficient."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_terms", terms)
        return poly

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        # Pickling and copying rebuild through _canonical, not by
        # restoring the slot through the refusing __setattr__.
        return (LaurentPoly._canonical, (dict(self._terms),))

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

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(key == (0, 0) for key in self._terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms.get((0, 0), 0)

    def is_diagonal(self) -> bool:
        """True when every monomial is a power of q = uv (exponents a == b)."""
        return all(a == b for a, b in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

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
            c += out.get(key, 0)
            if c:
                out[key] = c
            else:
                del out[key]
        return LaurentPoly._canonical(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._canonical({key: -c for key, c in self._terms.items()})

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
        return LaurentPoly._canonical({key: c for key, c in out.items() if c})

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

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Return the unique quotient when ``divisor`` divides exactly.

        Division proceeds by leading-term elimination under the (a+b, a)
        order.  Both operands are first shifted by unit monomials so all
        exponents are nonnegative; this keeps the elimination inside
        Z[u, v], where the order is a well-order and termination is
        guaranteed.  Any step that cannot be eliminated exactly raises
        NonExactDivision.

        A single-term divisor (a unit monomial, an integer, ``ONE``)
        divides term by term in one pass: exponents shift, coefficients
        divide, and any remainder raises NonExactDivision.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ZERO

        if len(divisor._terms) == 1:
            ((da, db), dc), = divisor._terms.items()
            shifted: dict[tuple[int, int], int] = {}
            for (a, b), c in self._terms.items():
                c, residue = divmod(c, dc)
                if residue:
                    raise NonExactDivision(f"({self}) is not divisible by ({divisor})")
                shifted[(a - da, b - db)] = c
            return LaurentPoly._canonical(shifted)

        sa = min(a for a, _ in self._terms)
        sb = min(b for _, b in self._terms)
        da = min(a for a, _ in divisor._terms)
        db = min(b for _, b in divisor._terms)

        rem = {(a - sa, b - sb): c for (a, b), c in self._terms.items()}
        den = {(a - da, b - db): c for (a, b), c in divisor._terms.items()}
        lead_d = max(den, key=_order_key)
        lead_dc = den[lead_d]

        quo: dict[tuple[int, int], int] = {}
        while rem:
            lead_r = max(rem, key=_order_key)
            ea = lead_r[0] - lead_d[0]
            eb = lead_r[1] - lead_d[1]
            if ea < 0 or eb < 0:
                raise NonExactDivision(f"({self}) is not divisible by ({divisor})")
            c, residue = divmod(rem[lead_r], lead_dc)
            if residue:
                raise NonExactDivision(f"({self}) is not divisible by ({divisor})")
            quo[(ea, eb)] = c
            for (na, nb), nc in den.items():
                key = (na + ea, nb + eb)
                value = rem.get(key, 0) - c * nc
                if value:
                    rem[key] = value
                else:
                    rem.pop(key, None)

        shift_a = sa - da
        shift_b = sb - db
        return LaurentPoly({(a + shift_a, b + shift_b): c for (a, b), c in quo.items()})

    def evaluate(self, u0: int | Fraction, v0: int | Fraction) -> Fraction:
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
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
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
        return [[a, b, str(c)] for (a, b), c in self.items()]

    @classmethod
    def from_json_terms(cls, data: Iterable) -> "LaurentPoly":
        triples = []
        for item in data:
            try:
                a, b, c = item
                triples.append((int(a), int(b), int(c)))
            except (TypeError, ValueError) as exc:
                raise PolyParseError(f"bad JSON term {item!r}: expected [a, b, coeff]") from exc
        return cls.from_terms(triples)


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
U = LaurentPoly.monomial(1, 0)
V = LaurentPoly.monomial(0, 1)
Q = LaurentPoly.monomial(1, 1)


class QPoly:
    """Dense Laurent polynomial in q over the integers.

    ``coeffs[i]`` is the coefficient of q^(low + i).  The list is trimmed:
    it is empty (the zero polynomial, with low 0) or starts and ends with
    a nonzero coefficient, so equal polynomials have equal fields.  No
    operation mutates an instance.  A ``QPoly`` equals the
    ``LaurentPoly`` it converts to.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int, coeffs: list[int]):
        """Trim ``coeffs`` (a list of ints, kept without copying) and
        shift ``low`` past any zeros dropped from the front."""
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        start = 0
        while start < end and not coeffs[start]:
            start += 1
        if start or end < len(coeffs):
            coeffs = coeffs[start:end]
        self.low = low + start if coeffs else 0
        self.coeffs = coeffs

    @classmethod
    def from_laurent(cls, poly: LaurentPoly) -> "QPoly":
        if not poly.is_diagonal():
            raise ValueError(f"not a polynomial in q: {poly}")
        if poly.is_zero():
            return cls(0, [])
        exponents = [a for a, _ in poly._terms]
        low = min(exponents)
        coeffs = [0] * (max(exponents) - low + 1)
        for (a, _), c in poly._terms.items():
            coeffs[a - low] = c
        return cls(low, coeffs)

    def to_laurent(self) -> LaurentPoly:
        low = self.low
        return LaurentPoly._canonical(
            {(low + i, low + i): c for i, c in enumerate(self.coeffs) if c}
        )

    def __add__(self, other: "QPoly") -> "QPoly":
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        first, second = (self, other) if self.low <= other.low else (other, self)
        out = list(first.coeffs)
        start = second.low - first.low
        end = start + len(second.coeffs)
        if end > len(out):
            out.extend([0] * (end - len(out)))
        out[start:end] = [x + y for x, y in zip(out[start:end], second.coeffs)]
        return QPoly(first.low, out)

    def __mul__(self, other: "QPoly") -> "QPoly":
        short, long = self.coeffs, other.coeffs
        if not short:
            return self
        if not long:
            return other
        if len(short) > len(long):
            short, long = long, short
        # The first term of the short operand starts the output; each
        # later one adds to it in one slice update.
        n = len(long)
        out = [short[0] * y for y in long]
        out.extend([0] * (len(short) - 1))
        for i in range(1, len(short)):
            c = short[i]
            if c:
                out[i:i + n] = [x + c * y for x, y in zip(out[i:i + n], long)]
        return QPoly(self.low + other.low, out)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.low == other.low and self.coeffs == other.coeffs
        if isinstance(other, LaurentPoly):
            return self.to_laurent() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"QPoly({self.to_laurent().to_text()!r})"


def _tokenize(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-":
            tokens.append(("sign", -1 if ch == "-" else 1))
            pos += 1
            continue
        if ch == "*":
            tokens.append(("star", None))
            pos += 1
            continue
        if ch.isdigit():
            end = pos
            while end < n and text[end].isdigit():
                end += 1
            tokens.append(("int", int(text[pos:end])))
            pos = end
            continue
        if ch in "uvq":
            exp = 1
            end = pos + 1
            if end < n and text[end] == "^":
                end += 1
                sign = 1
                if end < n and text[end] == "-":
                    sign = -1
                    end += 1
                digits_start = end
                while end < n and text[end].isdigit():
                    end += 1
                if end == digits_start:
                    raise PolyParseError(f"missing exponent after '^' at position {pos}")
                exp = sign * int(text[digits_start:end])
            tokens.append(("var", (ch, exp)))
            pos = end
            continue
        raise PolyParseError(f"unexpected character {ch!r} at position {pos}")
    return tokens


def parse_poly(text: str) -> LaurentPoly:
    """Parse the text format: signed terms of u^a*v^b or q^k monomials.

    Accepts both explicit '*' separators and juxtaposition, e.g.
    ``2*q^2 - q`` and ``2q^2 - q`` parse identically, as do
    ``u^2*v^3`` and ``u^2v^3``.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text")

    triples: list[tuple[int, int, int]] = []
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        if tokens[i][0] == "sign":
            sign = tokens[i][1]
            i += 1
        coeff: int | None = None
        a = b = 0
        saw_factor = False
        after_star = False
        while i < n and tokens[i][0] in ("int", "var", "star"):
            kind, value = tokens[i]
            if kind == "star":
                if not saw_factor or after_star:
                    raise PolyParseError("misplaced '*'")
                after_star = True
            elif kind == "int":
                if saw_factor:
                    raise PolyParseError("integer may only lead a term")
                coeff = value
                saw_factor = True
                after_star = False
            else:
                var, exp = value
                if var == "u":
                    a += exp
                elif var == "v":
                    b += exp
                else:
                    a += exp
                    b += exp
                saw_factor = True
                after_star = False
            i += 1
        if not saw_factor:
            raise PolyParseError("empty term")
        if after_star:
            raise PolyParseError("trailing '*'")
        triples.append((a, b, sign * (coeff if coeff is not None else 1)))
    return LaurentPoly.from_terms(triples)
