"""Jet-coefficient vector fields, weighted gradings, and the graded family
realizations used by the admissibility checks.

A VectorField stores one Jet coefficient per derivative slot ('x', i) or
('xi', j).  The families are the rows of one table, FAMILIES: W and S are
vector-field algebras, and H, K, HO, SHO, KO and SKO are carried by function
spaces, with brackets from the brackets module.  A row gives the family's
bracket, the parity shift of a function element (0 for H and K, 1 for the
odd families, None for W and S), the carrier operator whose kernel the
family is (divergence, odd_laplacian, div_beta, or None for the whole space)
and the keys it drops: the unit for H, HO and SHO, SHO's top monomial,
S(1|n)'s top field and SKO's two special-beta monomials.

A FamilyRealization flattens elements onto keys, (slot tag, slot index, even
exponents, odd indices) for a field and a monomial for a function, and reads
degrees, parities and the basis of each degree off the keys alone.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import brackets as br
from .brackets import poisson_antidiagonal
from .jets import (Ambient, Jet, _check_generator, _mul_into, _same_ambient,
                   div_beta, format_jet, odd_laplacian, parse_jet)
from .linalg import _coeff, nullspace, vec_parity

F = Fraction

Slot = tuple  # ('x', i) or ('xi', j)


class VectorField:
    """Derivation of the jet algebra: sum of coefficient * partial-slot, each
    slot ('x', i) or ('xi', j) naming a generator and each coefficient a jet
    on the ambient; anything else raises a ValueError naming the slot."""

    __slots__ = ("ambient", "coeffs")

    def __init__(self, ambient: Ambient, coeffs: dict | None = None):
        self.ambient = ambient
        coeffs = coeffs or {}
        for s, c in coeffs.items():
            if type(s) is not tuple or len(s) != 2 or s[0] not in ("x", "xi"):
                raise ValueError(f"unknown slot {s!r}")
            _check_generator(ambient, *s)
            if not isinstance(c, Jet) or (c.ambient is not ambient
                                          and c.ambient != ambient):
                raise ValueError(f"slot {s!r} needs a jet on {ambient!r}, "
                                 f"got {c!r}")
        self.coeffs = {s: c for s, c in coeffs.items() if not c.is_zero()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, amb: Ambient) -> "VectorField":
        return cls(amb)

    @classmethod
    def partial(cls, amb: Ambient, kind: str, idx: int) -> "VectorField":
        return cls(amb, {(kind, idx): Jet.one(amb)})

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def parity(self) -> int | None:
        """Slot parity plus coefficient parity, when consistent."""
        return vec_parity(_flat(self), lambda k: (k[0] + len(k[3])) & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorField)
            and self.ambient == other.ambient
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ambient, tuple(sorted(self.coeffs.items(),
                                                key=lambda kv: kv[0]))))

    def __repr__(self):
        return f"VectorField({format_field(self)})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "VectorField") -> "VectorField":
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out[s] + c if s in out else c
        return VectorField(self.ambient, out)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __neg__(self) -> "VectorField":
        return VectorField(self.ambient,
                           {s: -c for s, c in self.coeffs.items()})

    def scale(self, k) -> "VectorField":
        return VectorField(self.ambient,
                           {s: c.scale(k) for s, c in self.coeffs.items()})

    def __rmul__(self, f):
        if isinstance(f, (int, Fraction)):
            return self.scale(f)
        if isinstance(f, Jet):
            return VectorField(self.ambient,
                               {s: f * c for s, c in self.coeffs.items()})
        return NotImplemented

    # -- action ------------------------------------------------------------

    def __call__(self, f: Jet) -> Jet:
        if f.ambient is not self.ambient:
            _same_ambient(self, f)
        out: dict = {}
        for (kind, idx), c in self.coeffs.items():
            df = f.d_even(idx) if kind == "x" else f.d_odd(idx)
            if df.terms:
                _mul_into(out, c.terms, df.terms)
        return Jet._clean(self.ambient, out)


def _flat(X: VectorField) -> dict:
    """X as a vector on (slot tag, slot index, even exponents, odd indices)
    keys, tag 0 for an x slot and 1 for a xi slot."""
    return {(0 if s[0] == "x" else 1, s[1]) + m: c
            for s, f in X.coeffs.items() for m, c in f.terms.items()}


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Superbracket [X, Y] = X Y - (-1)^{p(X)p(Y)} Y X of derivations, in
    coefficient form, bilinear over mixed-parity inputs.

    Each slot t of Y binds one term list (brackets.bind_terms), X's factor
    first.  X(Y_t) goes into slot t as the terms (X_s, d_s); a part of X_s
    of jet parity p adds -(-1)^{t(p+s)} d_t(part) P^{s+t}(Y_t) to slot s,
    s and t being slot parities (0 for x, 1 for xi) and P the parity
    involution, which negates odd monomials.  No sign reads Y's parity, so
    Y is never split; X is split once per call."""
    amb = X.ambient
    if Y.ambient is not amb:
        _same_ambient(X, Y)
    parts = [(s, part, p ^ (s[0] == "xi"))
             for s, c in X.coeffs.items() for part, p in c.parity_parts()]
    out: dict = {}
    for t, c in Y.coeffs.items():
        odd_t = t[0] == "xi"
        terms = {t: [(f, s) for s, f in X.coeffs.items()]}
        for s, part, px in parts:
            d = br._operand(part, t)
            terms.setdefault(s, []).append(
                (d if odd_t and px else -d,
                 "P" if odd_t ^ (s[0] == "xi") else None))
        br.bind_terms(terms)(c, out)
    return VectorField(amb, {s: Jet._clean(amb, acc)
                             for s, acc in out.items()})


def divergence(X: VectorField) -> Jet:
    """Sum of slot-derivatives of the coefficients; each odd-slot term is
    signed by the parity of its coefficient."""
    out = Jet.zero(X.ambient)
    for (kind, idx), c in X.coeffs.items():
        if kind == "x":
            out = out + c.d_even(idx)
        else:
            for part, p in c.parity_parts():
                out = out + part.d_odd(idx).scale(-1 if p else 1)
    return out


def format_field(X: VectorField) -> str:
    if not X.coeffs:
        return "0"
    parts = []
    for (kind, idx) in sorted(X.coeffs, key=lambda s: (s[0] != "x", s[1])):
        c = X.coeffs[(kind, idx)]
        name = f"d{kind}{idx}"
        if kind == "xi" and X.ambient.tau and idx == X.ambient.n_odd:
            name = "dtau"
        body = format_jet(c)
        if body == "1":
            parts.append(name)
        elif body == "-1":
            parts.append(f"-{name}")
        else:
            if "+" in body or " - " in body:
                body = f"({body})"
            parts.append(f"{body}*{name}")
    return " + ".join(parts).replace("+ -", "- ")


_SLOT = re.compile(r"d(x|xi|tau)(\d*)$")


def parse_slot(text: str, amb: Ambient) -> Slot:
    m = isinstance(text, str) and _SLOT.match(text.strip())
    if not m:
        raise ValueError(f"bad slot {text!r}")
    kind, idx = m.group(1), m.group(2)
    if kind == "tau":
        if idx or not amb.tau:
            raise ValueError(f"bad slot {text!r}")
        return ("xi", amb.n_odd)
    if not idx:
        raise ValueError(f"bad slot {text!r}")
    if kind == "xi" and amb.tau and int(idx) == amb.n_odd:
        raise ValueError(f"bad slot {text!r}: use 'dtau' for the last odd "
                         "generator")
    _check_generator(amb, kind, int(idx))
    return (kind, int(idx))


def parse_field(pairs: Iterable, amb: Ambient,
                params: dict | None = None) -> VectorField:
    """Build a field from (coefficient-expression, slot-name) pairs."""
    out = VectorField.zero(amb)
    for expr, slot_text in pairs:
        c = parse_jet(expr, amb, params)
        slot = parse_slot(slot_text, amb)
        out = out + VectorField(amb, {slot: c})
    return out


# -- gradings --------------------------------------------------------------


@dataclass(frozen=True)
class GradingSpec:
    """Weights for the generators: one integer per even generator and one
    per odd generator (tau's weight last when present)."""

    even_weights: tuple
    odd_weights: tuple

    def __post_init__(self):
        for w in (*self.even_weights, *self.odd_weights):
            if type(w) is not int:
                raise ValueError(f"weight {w!r} is not an integer")

    def wdeg(self, mono) -> int:
        ex, odds = mono
        w = sum(e * a for e, a in zip(ex, self.even_weights))
        return w + sum(self.odd_weights[j - 1] for j in odds)


# -- family realizations ---------------------------------------------------


def family_ambient(family: str, spec: GradingSpec) -> Ambient:
    m, n = len(spec.even_weights), len(spec.odd_weights)
    if family in ("KO", "SKO"):
        if n != m + 1:
            raise ValueError(f"{family} needs one more odd generator than even")
        return Ambient(m, n, tau=True)
    if family in ("HO", "SHO") and m != n:
        raise ValueError(f"{family} needs matching generator counts")
    if family == "H" and m % 2:
        raise ValueError("H needs an even number of even generators")
    if family == "K" and m % 2 == 0:
        raise ValueError("K needs an odd number of even generators")
    return Ambient(m, n)


def family_shift(family: str, spec: GradingSpec) -> int:
    """Degree shift of the function-side families: the common weight of the
    pairing, checked for consistency."""
    ev, od = spec.even_weights, spec.odd_weights
    if family in ("HO", "SHO"):
        sums = {a + b for a, b in zip(ev, od)}
        if len(sums) != 1:
            raise ValueError("pairing weights are not constant")
        return sums.pop()
    if family in ("KO", "SKO"):
        s = od[-1]
        sums = {a + b for a, b in zip(ev, od)}
        if sums != {s}:
            raise ValueError("pair weights must match the tau weight")
        return s
    if family in ("H", "K"):
        k = len(ev) // 2
        sums = {ev[2 * i] + ev[2 * i + 1] for i in range(k)}
        n = len(od)
        sums |= {od[j] + od[n - 1 - j] for j in range(n)}
        if len(ev) % 2:
            sums.add(ev[-1])
        if len(sums) > 1:
            raise ValueError("pairing weights are not constant")
        return sums.pop() if sums else 0
    raise ValueError(f"no function-side shift for family {family!r}")


def _drop_unit(f: Jet) -> Jet:
    unit = ((0,) * f.ambient.n_even, ())
    if unit not in f.terms:
        return f
    t = dict(f.terms)
    del t[unit]
    return Jet(f.ambient, t)


def kernel_basis(keys: list, build, op) -> list:
    """build(v) for each v of a basis of the kernel of op on the span of the
    keys, op taking build({key: 1}) to a jet; with op None, build({key: 1})
    for each key."""
    if op is None:
        return [build({key: 1}) for key in keys]
    return [build(v)
            for v in nullspace(keys, lambda key: op(build({key: 1})).terms)]


def _unit(m: int, n: int, beta) -> set:
    return {((0,) * m, ())}


def _sho_drops(m: int, n: int, beta) -> set:
    return _unit(m, n, beta) | {((0,) * m, tuple(range(1, n + 1)))}


def _s_drops(m: int, n: int, beta) -> set:
    return {(0, 1, (0,), tuple(range(1, n + 1)))} if m == 1 else set()


def _sko_drops(m: int, n: int, beta) -> set:
    """xi_1...xi_m tau at beta = 1 and xi_1...xi_m at beta = (m-2)/m."""
    zero, top = (0,) * m, tuple(range(1, n))  # xi_1..xi_m; tau is xi_n
    out = {(zero, top + (n,))} if beta == 1 else set()
    if m and beta == F(m - 2, m):
        out.add((zero, top))
    return out


# family -> (bracket, parity shift of a function element or None for a field
# family, carrier(x, beta) whose kernel is the family or None for the whole
# space, drops(m, n, beta) giving the keys left out on m even and n odd
# generators or None for none).
FAMILIES: dict = {
    "W": (lie_bracket, None, None, None),
    "S": (lie_bracket, None, lambda X, beta: divergence(X), _s_drops),
    "H": (poisson_antidiagonal, 0, None, _unit),
    "K": (br.gen_poisson_even, 0, None, None),
    "HO": (br.buttin, 1, None, _unit),
    "SHO": (br.buttin, 1, lambda f, beta: odd_laplacian(f), _sho_drops),
    "KO": (br.k_bracket, 1, None, None),
    "SKO": (br.k_bracket, 1, div_beta, _sko_drops),
}
FIELD_FAMILIES = tuple(f for f, row in FAMILIES.items() if row[1] is None)


class FamilyRealization:
    """Graded Lie-superalgebra window for one family: basis extraction by
    degree, bracket, parity, and flattening to linalg vectors.

    The family's row of FAMILIES gives its bracket, the parity shift of a
    function element, its carrier operator and the keys it drops.  Elements
    are VectorFields for W and S and Jets for the rest, flattened onto keys
    as the module docstring says.  A key's degree is its monomial's weight
    less its prefix's weight, the slot's weight or the family shift; its
    parity is its odd degree plus the prefix's parity, the slot tag or the
    parity shift.  The degree-k basis is the kept keys of degree k, as unit
    vectors or as the kernel of the carrier operator.  A dropped unit is a
    quotient by the constants, so the bracket drops the unit too."""

    def __init__(self, family: str, spec: GradingSpec, beta=None):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if not isinstance(spec, GradingSpec):
            raise ValueError(f"spec must be a GradingSpec, got {spec!r}")
        if family == "SKO":
            if beta is None:
                raise ValueError("SKO needs beta")
            beta = F(_coeff(beta, "SKO's beta"))
        self.family = family
        self.spec = spec
        self.beta = beta
        self.ambient = amb = family_ambient(family, spec)
        self._bracket, shift, self._carrier, drops = FAMILIES[family]
        if shift is None:
            self.kind = VectorField
            self._prefixes = {
                (tag, i): (w, tag)
                for tag, ws in enumerate((spec.even_weights, spec.odd_weights))
                for i, w in enumerate(ws, 1)}
        else:
            self.kind = Jet
            self._prefixes = {(): (family_shift(family, spec), shift)}
        self._dropped = drops(amb.n_even, amb.n_odd, beta) if drops else set()
        self._quotient = ((0,) * amb.n_even, ()) in self._dropped

    # -- elements and keys -------------------------------------------------

    def check(self, a, name: str = "element") -> None:
        """Raise ValueError, naming the argument, unless a is an element of
        the family's kind on its ambient."""
        if not (isinstance(a, self.kind) and a.ambient == self.ambient):
            raise ValueError(f"{name} must be a {self.kind.__name__} on "
                             f"{self.ambient!r}, got {a!r}")

    def to_vec(self, a) -> dict:
        self.check(a)
        return _flat(a) if self.kind is VectorField else dict(a.terms)

    def from_vec(self, v: dict):
        if self.kind is Jet:
            return Jet(self.ambient, v)
        terms: dict = {}
        for (tag, idx, ex, odds), c in v.items():
            terms.setdefault(("xi" if tag else "x", idx), {})[ex, odds] = c
        return VectorField(self.ambient, {
            s: Jet(self.ambient, t) for s, t in terms.items()})

    def parse(self, text):
        """An element from its text: (coefficient, slot) pairs for a field
        family, a jet's text for a function family."""
        if self.kind is Jet:
            return parse_jet(text, self.ambient)
        return parse_field(text, self.ambient)

    def format(self, a) -> str:
        return format_field(a) if self.kind is VectorField else format_jet(a)

    def _degree(self, key) -> int:
        return self.spec.wdeg(key[-2:]) - self._prefixes[key[:-2]][0]

    def _key_parity(self, key) -> int:
        return (self._prefixes[key[:-2]][1] + len(key[-1])) & 1

    # -- degrees and parity -----------------------------------------------

    def parity(self, a) -> int | None:
        return vec_parity(self.to_vec(a), self._key_parity)

    def degrees(self, a) -> set:
        return {self._degree(key) for key in self.to_vec(a)}

    # -- bracket -----------------------------------------------------------

    def bracket(self, a, b):
        c = self._bracket(a, b)
        return _drop_unit(c) if self._quotient else c

    # -- bases -------------------------------------------------------------

    def basis_of_degree(self, k: int, order: int) -> list:
        if type(k) is not int:
            raise ValueError(f"degree {k!r} is not an integer")
        keys = sorted(
            key for m in self.ambient.monomials(order)
            for key in (p + m for p in self._prefixes)
            if key not in self._dropped and self._degree(key) == k)
        op = self._carrier and (lambda x: self._carrier(x, self.beta))
        return kernel_basis(keys, self.from_vec, op)
