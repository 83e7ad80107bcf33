"""Jet-coefficient vector fields, weighted gradings, and the graded family
realizations used by the admissibility checks.

A VectorField stores one Jet coefficient per derivative slot ('x', i) or
('xi', j).  Families come in two flavors: W and S are honest vector-field
algebras; H, K, HO, SHO, KO and SKO are carried by function spaces (jets
modulo stated monomial exclusions) with brackets from the brackets module.
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
from .linalg import nullspace, vec_parity

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
    m = _SLOT.match(text.strip())
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

    def wdeg(self, mono) -> int:
        ex, odds = mono
        w = sum(e * a for e, a in zip(ex, self.even_weights))
        return w + sum(self.odd_weights[j - 1] for j in odds)

    def slot_weight(self, slot: Slot) -> int:
        kind, idx = slot
        ws = self.even_weights if kind == "x" else self.odd_weights
        return ws[idx - 1]

    def jet_degrees(self, f: Jet, shift: int = 0) -> set:
        return {self.wdeg(m) - shift for m in f.terms}

    def field_degrees(self, X: VectorField) -> set:
        out = set()
        for slot, c in X.coeffs.items():
            w = self.slot_weight(slot)
            out |= {self.wdeg(m) - w for m in c.terms}
        return out


# -- family realizations ---------------------------------------------------

FIELD_FAMILIES = ("W", "S")
FUNCTION_FAMILIES = ("H", "K", "HO", "SHO", "KO", "SKO")


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


def _excluded_monomials(family: str, amb: Ambient, beta) -> set:
    """Monomials removed from the carrier by quotients and derived-algebra
    descriptions."""
    out = set()
    zero_ex = (0,) * amb.n_even
    if family in ("H", "HO", "SHO"):
        out.add((zero_ex, ()))
    if family == "SHO":
        out.add((zero_ex, tuple(range(1, amb.n_odd + 1))))
    if family == "SKO":
        n = amb.n_even
        top = tuple(range(1, amb.n_odd))  # xi_1..xi_n, tau excluded
        if beta == 1:
            out.add((zero_ex, top + (amb.n_odd,)))
        if n != 0 and F(beta) == F(n - 2, n):
            out.add((zero_ex, top))
    return out


class FamilyRealization:
    """Graded Lie-superalgebra window for one family: basis extraction by
    degree, bracket, parity, and flattening to linalg vectors."""

    def __init__(self, family: str, spec: GradingSpec, beta=None):
        if family not in FIELD_FAMILIES + FUNCTION_FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if family == "SKO":
            if beta is None:
                raise ValueError("SKO needs beta")
            beta = F(beta)
        self.family = family
        self.spec = spec
        self.beta = beta
        self.ambient = family_ambient(family, spec)
        self.field_side = family in FIELD_FAMILIES
        if not self.field_side:
            self.shift = family_shift(family, spec)

    # -- degrees and parity -----------------------------------------------

    def parity(self, a) -> int | None:
        if self.field_side:
            return a.parity()
        p = a.parity()
        if p is None:
            return None
        if self.family in ("H", "K"):
            return p
        return p ^ 1

    def degrees(self, a) -> set:
        if self.field_side:
            return self.spec.field_degrees(a)
        return self.spec.jet_degrees(a, self.shift)

    # -- vector flattening -------------------------------------------------

    def to_vec(self, a) -> dict:
        if self.field_side:
            return _flat(a)
        return dict(a.terms)

    def from_vec(self, v: dict):
        if self.field_side:
            terms: dict = {}
            for (tag, idx, ex, odds), c in v.items():
                terms.setdefault(("xi" if tag else "x", idx), {})[ex, odds] = c
            return VectorField(self.ambient, {
                s: Jet(self.ambient, t) for s, t in terms.items()})
        return Jet(self.ambient, v)

    # -- bracket -----------------------------------------------------------

    def bracket(self, a, b):
        if self.field_side:
            return lie_bracket(a, b)
        if self.family == "H":
            return _drop_unit(poisson_antidiagonal(a, b))
        if self.family == "K":
            return br.gen_poisson_even(a, b)
        if self.family in ("HO", "SHO"):
            return _drop_unit(br.buttin(a, b))
        return br.k_bracket(a, b)

    # -- bases -------------------------------------------------------------

    def basis_of_degree(self, k: int, order: int) -> list:
        if self.field_side:
            return self._field_basis(k, order)
        return self._function_basis(k, order)

    def _slots(self) -> list[Slot]:
        amb = self.ambient
        return [("x", i) for i in range(1, amb.n_even + 1)] + [
            ("xi", j) for j in range(1, amb.n_odd + 1)
        ]

    def _field_basis(self, k: int, order: int) -> list[VectorField]:
        amb = self.ambient
        domain = []
        for slot in self._slots():
            w = self.spec.slot_weight(slot)
            for m in amb.monomials(order):
                if self.spec.wdeg(m) - w == k:
                    tag = 0 if slot[0] == "x" else 1
                    domain.append((tag, slot[1], m[0], m[1]))
        domain.sort()
        if self.family == "S" and amb.n_even == 1:
            top = (0, 1, (0,), tuple(range(1, amb.n_odd + 1)))
            domain = [key for key in domain if key != top]
        if self.family == "W":
            return [self.from_vec({key: 1}) for key in domain]

        def op(key):
            return divergence(self.from_vec({key: 1})).terms

        return [self.from_vec(v) for v in nullspace(domain, op)]

    def _function_basis(self, k: int, order: int) -> list[Jet]:
        amb = self.ambient
        excluded = _excluded_monomials(self.family, amb, self.beta)
        domain = sorted(
            m
            for m in amb.monomials(order)
            if self.spec.wdeg(m) - self.shift == k and m not in excluded
        )
        if self.family in ("H", "K", "HO", "KO"):
            return [Jet(amb, {m: 1}) for m in domain]
        if self.family == "SHO":
            op = lambda m: odd_laplacian(Jet(amb, {m: 1})).terms
        else:
            op = lambda m: div_beta(Jet(amb, {m: 1}), self.beta).terms
        return [Jet(amb, v) for v in nullspace(domain, op)]

