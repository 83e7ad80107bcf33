"""Polynomial jets in commuting and anticommuting generators.

An Ambient fixes m commuting generators x1..xm and n anticommuting ones
xi1..xin; when ``tau=True`` the last anticommuting generator is special (it
prints as ``tau`` and the default Euler weight skips it).  A Jet is an exact
polynomial: a finite rational combination of monomials with nonzero
coefficients, each an int when it is whole and a Fraction otherwise (linalg's
one rule).  The public constructor brings every coefficient to that form and
rejects any that is no exact rational number; every operation here keeps it,
dividing exactly and storing a whole result as an int.  So jets of whole
numbers never touch Fraction arithmetic.  Products, here and in the bracket
engine, accumulate into one term dict in place (_mul_into).  A degree window,
where one is needed, is cut by the caller.
"""
from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator

from .linalg import _coeff, _whole, split_parity, vec_scale

# monomial: (tuple of even exponents, strictly increasing tuple of odd indices)
Monomial = tuple


class Ambient:
    """Generator layout shared by a family of jets."""

    __slots__ = ("n_even", "n_odd", "tau")

    def __init__(self, n_even: int, n_odd: int, tau: bool = False):
        for k in (n_even, n_odd):
            if type(k) is not int or k < 0:
                raise ValueError("generator counts must be integers >= 0, "
                                 f"got {n_even!r} and {n_odd!r}")
        if tau and n_odd == 0:
            raise ValueError("tau designation needs at least one odd generator")
        self.n_even = n_even
        self.n_odd = n_odd
        self.tau = bool(tau)

    def odd_name(self, j: int) -> str:
        return "tau" if self.tau and j == self.n_odd else f"xi{j}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ambient)
            and (self.n_even, self.n_odd, self.tau)
            == (other.n_even, other.n_odd, other.tau)
        )

    def __hash__(self):
        return hash((self.n_even, self.n_odd, self.tau))

    def __repr__(self):
        t = ", tau=True" if self.tau else ""
        return f"Ambient({self.n_even}, {self.n_odd}{t})"

    def monomials(self, max_even_deg: int) -> Iterator[Monomial]:
        """All monomials with total even degree <= max_even_deg."""
        if type(max_even_deg) is not int or max_even_deg < 0:
            raise ValueError(f"even degree {max_even_deg!r} is no integer "
                             ">= 0")
        for odds in _subsets(self.n_odd):
            for ex in _exponents(self.n_even, max_even_deg):
                yield (ex, odds)


def _check_generator(amb: Ambient, kind: str, i) -> None:
    """Raise ValueError unless i is an integer index of a generator of amb
    of this kind, "x" or "xi"."""
    if type(i) is not int or not 1 <= i <= (
            amb.n_even if kind == "x" else amb.n_odd):
        raise ValueError(f"{kind}{i!r} not in {amb!r}")


def _subsets(n: int) -> Iterator[tuple]:
    for mask in range(1 << n):
        yield tuple(j + 1 for j in range(n) if mask >> j & 1)


def _exponents(m: int, total: int) -> Iterator[tuple]:
    if m == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _exponents(m - 1, total - first):
            yield (first,) + rest


def merge_sign(a: tuple, b: tuple) -> tuple[int, tuple]:
    """Merge two increasing odd-index tuples; sign counts transpositions.

    Returns (0, ()) when an index repeats (the square of an odd generator).
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, ()
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] hops over the remaining entries of a
            if (len(a) - i) & 1:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


class Jet:
    """Finite combination of monomials with exact coefficients."""

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient: Ambient, terms: dict | None = None):
        self.ambient = ambient
        out = {}
        for m, c in (terms or {}).items():
            if type(c) is not int:
                c = _coeff(c, f"the term {m!r}")
            if c:
                out[m] = c
        self.terms = out

    @classmethod
    def _clean(cls, ambient: Ambient, terms: dict) -> "Jet":
        """Jet holding ``terms`` as given: the caller vouches that every
        coefficient is nonzero and follows the rule, and that no other jet
        holds the dict."""
        out = object.__new__(cls)
        out.ambient = ambient
        out.terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, amb: Ambient) -> "Jet":
        return cls(amb)

    @classmethod
    def const(cls, amb: Ambient, c) -> "Jet":
        return cls(amb, {((0,) * amb.n_even, ()): _coeff(c, "a constant")})

    @classmethod
    def one(cls, amb: Ambient) -> "Jet":
        return cls.const(amb, 1)

    @classmethod
    def x(cls, amb: Ambient, i: int, power: int = 1) -> "Jet":
        _check_generator(amb, "x", i)
        if type(power) is not int or power < 0:
            raise ValueError(f"power {power!r} of x{i} is no integer >= 0")
        ex = [0] * amb.n_even
        ex[i - 1] = power
        return cls(amb, {(tuple(ex), ()): 1})

    @classmethod
    def xi(cls, amb: Ambient, j: int) -> "Jet":
        _check_generator(amb, "xi", j)
        return cls(amb, {((0,) * amb.n_even, (j,)): 1})

    @classmethod
    def tau_gen(cls, amb: Ambient) -> "Jet":
        if not amb.tau:
            raise ValueError("ambient has no tau generator")
        return cls.xi(amb, amb.n_odd)

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> int | None:
        """0 or 1 for parity-homogeneous jets, None for mixed or zero."""
        ps = {len(m[1]) & 1 for m in self.terms}
        if len(ps) == 1:
            return ps.pop()
        return None

    def parity_parts(self) -> list[tuple["Jet", int]]:
        """Parity-homogeneous parts as (part, parity) pairs: none for zero,
        the jet itself when it is homogeneous."""
        return [(self if t is self.terms else Jet._clean(self.ambient, t), p)
                for t, p in split_parity(self.terms, lambda m: len(m[1]) & 1)]

    def even_degree(self) -> int:
        """Largest total degree in the commuting generators (0 if zero)."""
        return max((sum(m[0]) for m in self.terms), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Jet)
            and self.ambient == other.ambient
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ambient, tuple(sorted(self.terms.items()))))

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "Jet", negate: bool) -> "Jet":
        # self + other, or self - other in the same pass when negate is set
        if other.ambient is not self.ambient:
            _same_ambient(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] - c if negate else out[m] + c
                if s:
                    out[m] = s if type(s) is int else _whole(s)
                else:
                    del out[m]
            else:
                out[m] = -c if negate else c
        return Jet._clean(self.ambient, out)

    def __add__(self, other: "Jet") -> "Jet":
        return self._combine(other, False)

    def __sub__(self, other: "Jet") -> "Jet":
        return self._combine(other, True)

    def __neg__(self) -> "Jet":
        return Jet._clean(self.ambient, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "Jet":
        if c == 1:
            return Jet._clean(self.ambient, dict(self.terms))
        if c == -1:
            return -self
        if type(c) is not int:
            c = _coeff(c, "a scaling")
        if not c:
            return Jet._clean(self.ambient, {})
        return Jet._clean(self.ambient, vec_scale(self.terms, c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Jet):
            return NotImplemented
        if other.ambient is not self.ambient:
            _same_ambient(self, other)
        out: dict = {}
        _mul_into(out, self.terms, other.terms)
        return Jet._clean(self.ambient, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "Jet":
        if type(k) is not int or k < 0:
            raise ValueError(f"power {k!r} of a jet is no integer >= 0")
        out = Jet.one(self.ambient)
        for _ in range(k):
            out = out * self
        return out

    # -- derivatives -------------------------------------------------------

    def d_even(self, i: int) -> "Jet":
        """Partial derivative in the i-th commuting generator."""
        _check_generator(self.ambient, "x", i)
        out = {}
        for (ex, odds), c in self.terms.items():
            e = ex[i - 1]
            if e:
                ex2 = ex[: i - 1] + (e - 1,) + ex[i:]
                out[(ex2, odds)] = c * e if type(c) is int else _whole(c * e)
        return Jet._clean(self.ambient, out)

    def d_odd(self, j: int) -> "Jet":
        """Left partial derivative in the j-th anticommuting generator."""
        _check_generator(self.ambient, "xi", j)
        out = {}
        for (ex, odds), c in self.terms.items():
            if j not in odds:
                continue
            pos = odds.index(j)
            odds2 = odds[:pos] + odds[pos + 1:]
            out[(ex, odds2)] = -c if pos & 1 else c
        return Jet._clean(self.ambient, out)

    def d_tau(self) -> "Jet":
        return self.d_odd(self.ambient.n_odd)

    def antiderivative(self, i: int, constant=0) -> "Jet":
        """Inverse of d_even(i); the constant lands on the unit monomial.
        Each division is exact, and a whole quotient is an int."""
        _check_generator(self.ambient, "x", i)
        out = {}
        for (ex, odds), c in self.terms.items():
            e = ex[i - 1]
            ex2 = ex[: i - 1] + (e + 1,) + ex[i:]
            out[(ex2, odds)] = _whole(Fraction(c, e + 1))
        constant = _coeff(constant, "a constant")
        if constant:
            # no image of a term is the unit monomial, so the slot is free
            out[((0,) * self.ambient.n_even, ())] = constant
        return Jet._clean(self.ambient, out)

    def euler(self, even_idx: Iterable[int] | None = None,
              odd_idx: Iterable[int] | None = None) -> "Jet":
        """Degree-counting operator over the chosen generators, an index
        weighing as many times as it is listed.

        Defaults count every commuting generator and every anticommuting one
        except a designated tau.
        """
        amb = self.ambient
        ev = Counter(range(1, amb.n_even + 1) if even_idx is None
                     else even_idx)
        od = Counter(range(1, amb.n_odd + 1 - amb.tau) if odd_idx is None
                     else odd_idx)
        out = {}
        for (ex, odds), c in self.terms.items():
            w = sum(e * ev[i] for i, e in enumerate(ex, 1) if e)
            w += sum(od[j] for j in odds)
            if w:
                out[(ex, odds)] = c * w if type(c) is int else _whole(c * w)
        return Jet._clean(self.ambient, out)


def _mul_into(out: dict, a: dict, b: dict) -> None:
    """out += a*b in place over term dicts of one ambient: keys that cancel
    are dropped and a whole sum is stored as an int.  The one product kernel
    of jets, vector fields and brackets."""
    for (ex1, od1), c1 in a.items():
        for (ex2, od2), c2 in b.items():
            sign, odds = merge_sign(od1, od2)
            if not sign:
                continue
            key = (tuple(map(add, ex1, ex2)), odds)
            p = c1 * c2 if sign > 0 else -(c1 * c2)
            s = out.get(key)
            s = p if s is None else s + p
            if s:
                out[key] = s if type(s) is int else _whole(s)
            else:
                del out[key]


def _same_ambient(f, g) -> None:
    if f.ambient != g.ambient:
        raise ValueError(f"jets from {f.ambient!r} and {g.ambient!r} "
                         "do not combine")


def odd_laplacian(f: Jet) -> Jet:
    """Sum over matched pairs (x_i, xi_i) of the mixed second derivative."""
    amb = f.ambient
    pairs = min(amb.n_even, amb.n_odd - (1 if amb.tau else 0))
    out = Jet.zero(amb)
    for i in range(1, pairs + 1):
        out = out + f.d_odd(i).d_even(i)
    return out


def div_beta(f: Jet, beta) -> Jet:
    """Weighted divergence on an ambient with a tau generator:
    the odd Laplacian plus (E - n*beta) applied to the tau derivative,
    where E counts all generators except tau and n is the even count."""
    amb = f.ambient
    if not amb.tau:
        raise ValueError("div_beta needs a tau generator")
    ft = f.d_tau()
    return (odd_laplacian(f) + ft.euler()
            - ft.scale(_coeff(beta, "beta") * amb.n_even))


class ExprError(ValueError):
    """Raised on malformed jet expressions."""


# Each nesting level costs the parser three frames: stay far below the limit.
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z]+\d*)|([+\-*^()]))")


def _tokenize(text: str) -> list[str]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprError(f"bad character at {text[pos:]!r}")
            break
        toks.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return toks


def parse_jet(text: str, amb: Ambient, params: dict | None = None) -> Jet:
    """Parse sums of monomial terms: rationals, generator names x<i>, xi<j>,
    tau, p<i>, q<i> (mapping to odd/even x-slots), optional '^' powers, '*'
    or juxtaposition for products, and parentheses.  Named scalars from
    ``params`` (e.g. alpha, beta) are substituted as constants."""
    toks = _tokenize(text)
    parser = _JetParser(toks, amb, params or {})
    out = parser.expr()
    if parser.pos != len(toks):
        raise ExprError(f"unexpected token {toks[parser.pos]!r}")
    return out


class _JetParser:
    def __init__(self, toks, amb, params):
        self.toks = toks
        self.amb = amb
        self.params = params
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def expr(self) -> Jet:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.toks[self.pos] == "-" else 1
            self.pos += 1
        out = self.term().scale(sign)
        while self.peek() in ("+", "-"):
            sign = -1 if self.toks[self.pos] == "-" else 1
            self.pos += 1
            out = out + self.term().scale(sign)
        return out

    def term(self) -> Jet:
        out = self.atom()
        while True:
            t = self.peek()
            if t == "*":
                self.pos += 1
                out = out * self.atom()
            elif t is not None and t not in ("+", "-", ")"):
                out = out * self.atom()
            else:
                return out

    def atom(self) -> Jet:
        t = self.peek()
        if t is None:
            raise ExprError("unexpected end of expression")
        self.pos += 1
        if t == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprError(f"parentheses nested deeper than {MAX_NESTING}")
            inner = self.expr()
            if self.peek() != ")":
                raise ExprError("missing ')'")
            self.pos += 1
            self.depth -= 1
            return self._power(inner)
        if t[0].isdigit():
            try:
                c = Fraction(t)
            except ZeroDivisionError:
                raise ExprError(f"zero denominator in {t!r}") from None
            return self._power(Jet.const(self.amb, c))
        return self._power(self._generator(t))

    def _power(self, base: Jet) -> Jet:
        if self.peek() == "^":
            self.pos += 1
            t = self.peek()
            if t is None or not t.isdigit() or int(t) < 1:
                raise ExprError("'^' needs a positive integer")
            self.pos += 1
            return base ** int(t)
        return base

    def _generator(self, name: str) -> Jet:
        amb = self.amb
        if name in self.params:
            return Jet.const(amb, self.params[name])
        if name == "tau":
            if not amb.tau:
                raise ExprError("no tau generator in this ambient")
            return Jet.tau_gen(amb)
        m = re.fullmatch(r"(xi|x|p|q)(\d+)", name)
        if not m:
            raise ExprError(f"unknown name {name!r}")
        kind, idx = m.group(1), int(m.group(2))
        try:
            if kind == "xi":
                if amb.tau and idx == amb.n_odd:
                    raise ExprError("use 'tau' for the last odd generator")
                return Jet.xi(amb, idx)
            if kind == "x":
                return Jet.x(amb, idx)
            if kind == "p":
                return Jet.x(amb, 2 * idx - 1)
            return Jet.x(amb, 2 * idx)
        except ValueError as e:
            raise ExprError(str(e)) from None


def format_jet(f: Jet) -> str:
    """Deterministic display: degree-then-lex term order, exact coefficients."""
    if not f.terms:
        return "0"
    items = sorted(
        f.terms.items(), key=lambda kv: (sum(kv[0][0]) + len(kv[0][1]), kv[0])
    )
    parts = []
    for (ex, odds), c in items:
        factors = []
        for i, e in enumerate(ex, 1):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        for j in odds:
            factors.append(f.ambient.odd_name(j))
        mag = c if c > 0 else -c
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
