"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live in a named graded ring (every variable has degree 1) and
are stored sparsely as a dict mapping exponent tuples to nonzero Fraction
coefficients.  The zero polynomial is the empty dict.  All operations are
pure and return canonical results, so polynomial identity testing is exact.

`Ideal` is defined here too, so that building one, or reading one from a
file, needs no more than this module and `linalg`.  Its `groebner` method
imports the Buchberger engine of `groebner` when it is first called.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import combinations
from operator import le
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .linalg import integral

if TYPE_CHECKING:
    from .groebner import StepBudget

Exponent = tuple  # tuple[int, ...], one entry per ring variable


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class PolyParseError(ValueError):
    """Malformed polynomial or ideal-file text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _exact(c) -> Fraction:
    """An int or Fraction operand as a Fraction; anything else is refused,
    so that no float or string enters the exact arithmetic."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"expected an int or Fraction, not {type(c).__name__}")
    return Fraction(c)


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def mono_divides(a: Exponent, b: Exponent) -> bool:
    """True if x^a divides x^b."""
    return all(map(le, a, b))


def mono_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def mono_deg(a: Exponent) -> int:
    return sum(a)


class MonomialOrder:
    """Total multiplicative monomial order of three kinds: lex, degrevlex, block(k).

    block(k) is the elimination order for the first k variables: any
    monomial involving one of them beats any monomial that does not, with
    degrevlex ties inside each block.

    Degrevlex ranks the last variable of the ring lowest.  Saturation by
    another variable needs that variable there; the Groebner kernel gets
    it by placing the variable's packed field where degrevlex places the
    last one's, with no second ring or copy of the generators.
    """

    __slots__ = ("kind", "block")

    def __init__(self, kind: str, block: int = 0):
        if kind not in ("lex", "degrevlex", "block"):
            raise ValueError(f"unknown monomial order {kind!r}")
        if kind == "block" and block <= 0:
            raise ValueError("block order needs a positive block size")
        self.kind = kind
        self.block = block if kind == "block" else 0

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def degrevlex() -> "MonomialOrder":
        return MonomialOrder("degrevlex")

    @staticmethod
    def elimination(k: int) -> "MonomialOrder":
        return MonomialOrder("block", k)

    def key(self) -> Callable[[Exponent], tuple]:
        """Sort key: key(a) > key(b) iff monomial a beats monomial b."""
        if self.kind == "lex":
            return lambda e: e
        if self.kind == "degrevlex":
            return _drl_key
        k = self.block
        return lambda e: (_drl_key(e[:k]), _drl_key(e[k:]))

    def sorted_monomials(self, monomials: Iterable[Exponent]) -> list[Exponent]:
        """Descending (leading monomial first)."""
        return sorted(monomials, key=self.key(), reverse=True)

    def __repr__(self):
        if self.kind == "block":
            return f"MonomialOrder(block={self.block})"
        return f"MonomialOrder({self.kind})"

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.block == other.block
        )

    def __hash__(self):
        return hash((self.kind, self.block))


def _drl_key(e: Exponent) -> tuple:
    return (sum(e), tuple(-x for x in reversed(e)))


DEGREVLEX = MonomialOrder.degrevlex()
LEX = MonomialOrder.lex()


class Ring:
    """A polynomial ring over QQ with named degree-1 variables."""

    __slots__ = ("variables", "_index")

    def __init__(self, variables: Sequence[str]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        if not variables:
            raise ValueError("ring needs at least one variable")
        self.variables = variables
        self._index = {name: i for i, name in enumerate(variables)}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = _exact(c)
        if c == 0:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "Poly":
        i = self.var_index(name)
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): Fraction(1)})

    def gens(self) -> list["Poly"]:
        return [self.var(v) for v in self.variables]

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r} in ring {self}") from None

    def monomial(self, exponents: Sequence[int]) -> "Poly":
        e = tuple(exponents)
        if len(e) != self.nvars or any(x < 0 for x in e):
            raise ValueError("bad exponent vector")
        return Poly(self, {e: Fraction(1)})

    def parse(self, text: str) -> "Poly":
        return parse_poly(self, text)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"Ring({', '.join(self.variables)})"


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms  # owned by this instance; never mutated afterwards

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {mono_deg(e) for e in self.terms}
        return len(degs) == 1

    def is_constant(self) -> bool:
        return all(mono_deg(e) == 0 for e in self.terms)

    def lead_monomial(self, order: MonomialOrder = DEGREVLEX) -> Exponent:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key())

    def lead_coefficient(self, order: MonomialOrder = DEGREVLEX) -> Fraction:
        return self.terms[self.lead_monomial(order)]

    def primitive(self) -> "Poly":
        """The primitive integer polynomial that is a positive multiple of self."""
        return Poly(self.ring, {e: Fraction(v) for e, v in integral(self.terms).items()})

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.ring, out)

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        if not self.terms or not other.terms:
            return Poly(self.ring, {})
        out: dict = {}
        get = out.get
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = get(e, Fraction(0)) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Poly(self.ring, out)

    def __rmul__(self, other):
        return self * other

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "Poly":
        c = _exact(c)
        if c == 0:
            return Poly(self.ring, {})
        return Poly(self.ring, {e: x * c for e, x in self.terms.items()})

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return self.ring.const(other)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                other = self.ring.const(other)
            else:
                return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus and substitution -------------------------------------------

    def diff(self, var: str) -> "Poly":
        """Formal partial derivative with respect to a ring variable."""
        i = self.ring.var_index(var)
        out: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            e2 = e[:i] + (k - 1,) + e[i + 1 :]
            s = out.get(e2, Fraction(0)) + c * k
            if s:
                out[e2] = s
            else:
                out.pop(e2, None)
        return Poly(self.ring, out)

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Ring homomorphism sending variable i to images[i].

        All images must live in one common ring, one per variable of this
        polynomial's ring.
        """
        if len(images) != self.ring.nvars:
            raise ValueError(
                f"need {self.ring.nvars} images, got {len(images)}"
            )
        target = images[0].ring
        for p in images:
            if p.ring != target:
                raise RingMismatchError("images live in different rings")
        # cache powers of each image as needed
        powers: list[dict[int, Poly]] = [dict() for _ in images]

        def power(i: int, k: int) -> Poly:
            cache = powers[i]
            if k not in cache:
                cache[k] = images[i] ** k
            return cache[k]

        result = target.zero()
        for e, c in self.terms.items():
            term = target.const(c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            result = result + term
        return result

    # -- display -------------------------------------------------------------

    def sorted_terms(self, order: MonomialOrder = DEGREVLEX) -> list[tuple[Exponent, Fraction]]:
        return [(e, self.terms[e]) for e in order.sorted_monomials(self.terms)]

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)})"


def _minor(mat, rows: tuple, cols: tuple, memo: dict, ring: Ring) -> Poly:
    """The minor of mat on cols and the last len(cols) of rows, expanded
    along its first row.  memo holds the minors of fewer columns than rows
    computed so far on these rows, by column set."""
    row = mat[rows[-len(cols)]]
    if len(cols) == 1:
        return row[cols[0]]
    if cols in memo:
        return memo[cols]
    total = ring.zero()
    for j, c in enumerate(cols):
        e = row[c]
        if not e:
            continue
        sub = _minor(mat, rows, cols[:j] + cols[j + 1 :], memo, ring)
        if not sub:
            continue
        t = e * sub
        total = total + t if j % 2 == 0 else total - t
    if len(cols) < len(rows):
        memo[cols] = total
    return total


def nonzero_minors(mat: Sequence[Sequence[Poly]], k: int, ring: Ring):
    """Yield the nonzero k x k minors of a polynomial matrix, row sets in
    lexicographic order and, within each, column sets likewise.

    Each minor is the cofactor expansion along its first row.  Sub-minors
    recur across the column sets of one row set, so they are memoized; the
    memo is dropped when the row set changes, which bounds its size.
    """
    for rows in combinations(range(len(mat)), k):
        memo: dict[tuple, Poly] = {}
        for cols in combinations(range(len(mat[0])), k):
            d = _minor(mat, rows, cols, memo, ring)
            if d:
                yield d


# ---------------------------------------------------------------------------
# ideals

class Ideal:
    """Finitely generated ideal with cached reduced Groebner bases."""

    __slots__ = ("ring", "generators", "_gb_cache")

    def __init__(self, ring: Ring, generators: Iterable[Poly]):
        gens = []
        for g in generators:
            if not isinstance(g, Poly):
                raise TypeError("ideal generators must be Poly")
            if g.ring != ring:
                raise ValueError("generator in wrong ring")
            if g:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb_cache: dict[MonomialOrder, tuple[Poly, ...]] = {}

    def is_zero(self) -> bool:
        return not self.generators

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def groebner(
        self, order: MonomialOrder = DEGREVLEX, budget: StepBudget | int | None = None
    ) -> tuple[Poly, ...]:
        cached = self._gb_cache.get(order)
        if cached is not None:
            return cached
        # the engine loads on the first basis asked for; the name is read at
        # call time, so a rebinding of `groebner.buchberger` is seen
        from .groebner import buchberger

        gb = buchberger(self, order, budget)
        self._gb_cache[order] = gb
        return gb

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators[:4])
        more = "" if len(self.generators) <= 4 else f", ... ({len(self.generators)} gens)"
        return f"Ideal({gens}{more})"


def _fresh_name(ring: Ring, base: str = "t") -> str:
    name = base
    k = 0
    while name in ring.variables:
        k += 1
        name = f"{base}{k}"
    return name


# ---------------------------------------------------------------------------
# text format, the one statement of its grammar (spaces may stand between
# any two of its pieces):
#
#   polynomial := term (sign term)*        sign   := '+' | '-'
#   term       := sign* unit ('*' unit)*   number := digits ('/' digits)?
#   unit       := number variable? | variable ('^' digits)?
#   variable   := [A-Za-z_][A-Za-z0-9_]*
#
# So '*' may be left out only between a number and the variable after it:
# "2x^2" and "x*2 y" are read, "x 2" and "x y" are not.  Every run of
# spaces below is followed by a piece that cannot begin with a space, so
# the patterns refuse any line in linear time.  Names are ASCII on
# purpose: `\w` would also read letters such as 'é'.

VARIABLE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER = r"\d+(?:/\d+)?"
_POWER = rf"{VARIABLE.pattern}(?:\s*\^\s*\d+)?"
_UNIT = rf"(?:{_NUMBER}(?:\s*{_POWER})?|{_POWER})"
_TERM = re.compile(
    rf"\s*(?P<signs>(?:[-+]\s*)*)(?P<units>{_UNIT}(?:\s*\*\s*{_UNIT})*)\s*"
)
_FACTOR = re.compile(
    rf"(?P<number>{_NUMBER})|(?P<name>{VARIABLE.pattern})(?:\s*\^\s*(?P<power>\d+))?"
)


def _digits(text: str, line: int | None) -> int:
    """The integer a run of digits spells; one longer than Python's
    integer-string limit is a parse error, not a bare ValueError."""
    try:
        return int(text)
    except ValueError:
        raise PolyParseError(
            f"a number of {len(text)} digits is over the limit of "
            f"{sys.get_int_max_str_digits()}", line
        ) from None


def parse_poly(ring: Ring, text: str, line: int | None = None) -> Poly:
    if not text.strip():
        raise PolyParseError("empty polynomial", line)
    terms: dict = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None:
            raise PolyParseError(f"cannot read {text[pos:].strip()!r}", line)
        factors = _FACTOR.finditer(m["units"])
        if pos and not m["signs"]:
            first = next(factors)
            raise PolyParseError(
                f"missing '*' before {first['number'] or first['name']!r}", line
            )
        coeff = Fraction(-1 if m["signs"].count("-") % 2 else 1)
        exps = [0] * ring.nvars
        for f in factors:
            number, name, power = f.group("number", "name", "power")
            if number:
                num, _, den = number.partition("/")
                den = _digits(den or "1", line)
                if not den:
                    raise PolyParseError(f"zero denominator in {number!r}", line)
                coeff *= Fraction(_digits(num, line), den)
                continue
            j = ring._index.get(name)
            if j is None:
                raise PolyParseError(f"unknown variable {name!r}", line)
            exps[j] += _digits(power or "1", line)
        e = tuple(exps)
        s = terms.get(e, Fraction(0)) + coeff
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
        pos = m.end()
    return Poly(ring, terms)


def format_poly(p: Poly, order: MonomialOrder = DEGREVLEX) -> str:
    if not p.terms:
        return "0"
    names = p.ring.variables
    pieces = []
    for e, c in p.sorted_terms(order):
        factors = []
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        mono = "*".join(factors)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(pieces)
    if text.startswith("+ "):
        return text[2:]
    return "-" + text[2:]

