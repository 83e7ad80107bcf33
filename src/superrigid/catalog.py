"""Catalog of the classified simple rigid products.

Entries come in two kinds.  Finite entries carry exact structure constants
in a FinSuperAlg and run the full simplicity and rigidity machinery.  All but
LW_0_2, a hand table, are graded rows: a family, its even and odd weights and
a mu in g_1, with x o y = [[mu, x], y] on g_-1 (``product_from_mu``).
Oracle entries describe infinite-dimensional products through jet
coefficients: a carrier (an ambient, a kernel, or a quotient), a named slot
layout, and a table of product rules keyed by ordered slot pair.  Every rule
has one form: ``rule(f1, p1)`` takes a parity-homogeneous coefficient f1 of
the left factor and its parity, and returns for each output slot a list of
(f1-side jet, g operand) terms, which ``brackets.bind_terms`` evaluates on
the right factor's coefficient g.  The f1-side jet multiplies first, so
every sign depends on p1 alone.  A pair missing from the table multiplies
to zero, and each mirror pair is a row of its own.

Conventions shared by all entries:

  - an element is a dict mapping slot name -> coefficient jet;
  - the parity of a homogeneous piece is its jet parity plus the slot parity;
  - a commutative entry satisfies a o b = (-1)^{p(a)p(b)} b o a and an
    anticommutative one a o b = -(-1)^{p(a)p(b)} b o a in the entry's own
    parities; the declared symmetry is checked by verify_entry, never imposed.

Names are resolved through ``make``; ``registry_listing`` enumerates every
entry with its parameters and constraints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from functools import partial
from typing import Callable, Iterable, Sequence

from .brackets import (Pairing, _odd_pairing, bind_terms, buttin, k_bracket,
                       pairing_terms, term_map)
from .fields import FamilyRealization, GradingSpec, VectorField, kernel_basis
from .jets import Ambient, Jet, div_beta, format_jet, odd_laplacian
from .linalg import _coeff, ideal_closure, span_reduce, vec_parity
from .walg import FinSuperAlg, format_product, is_rigid, is_simple


class CatalogError(ValueError):
    """Unknown entry name or parameters outside an entry's legal range."""


def _sgn(k: int) -> int:
    return -1 if k & 1 else 1


# -- elements as slot dicts ------------------------------------------------


Element = dict

def elem_clean(a: Element) -> Element:
    return {s: f for s, f in a.items() if not f.is_zero()}


# -- oracle entries --------------------------------------------------------


class OracleEntry:
    """Infinite-dimensional product given by a table of slot-pair rules.

    ``rules`` maps an ordered slot pair (s1, s2) to ``rule(f1, p1)``: for a
    parity-homogeneous coefficient jet f1 in slot s1 of the left factor and
    its jet parity p1, a dict from output slot to a list of (f1-side jet, g
    operand) terms, g being the right factor's coefficient in slot s2 (see
    ``brackets.bind_terms``).  The f1-side jet multiplies first, so signs
    depend on p1 alone and no rule reads g's parity.  A pair missing from
    the table multiplies to zero.  A mirror pair (s2, s1) is its own row,
    never derived from the declared symmetry, so that verify_entry tests the
    symmetry.  ``product`` extends the table bilinearly and applies the
    quotient reduction.

    ``left(elems)`` binds many left factors once: each a split by parity,
    its terms keyed by (index of a, output slot).  The map it returns sends
    b to [a o b for a in elems] and takes each operand of b once.  An
    element whose slots are unknown, or whose values are not jets on the
    entry's ambient, raises CatalogError.

    Each slot carries the monomials outside ``excluded[slot]``, or, with
    ``kernel=(op, dropped_key)``, the kernel of ``op`` with the component
    along ``dropped_key`` (None for none) removed.  The slot order is the key
    order of ``slot_parity``.  ``extra_checks`` holds (name, fn) pairs that
    verify_entry runs after its sampled checks, fn(entry) giving (passed,
    detail).
    """

    kind = "oracle"

    def __init__(self, name: str, ambient: Ambient, slot_parity: dict,
                 symmetry: str, rules: dict, *, excluded: dict | None = None,
                 kernel: tuple | None = None, params: dict | None = None,
                 extra_checks: Sequence = ()):
        if symmetry not in ("commutative", "anticommutative"):
            raise ValueError(f"unknown symmetry {symmetry!r}")
        self.name = name
        self.ambient = ambient
        self.slot_parity = dict(slot_parity)
        self.slots = tuple(self.slot_parity)
        self.symmetry = symmetry
        self.rules = dict(rules)
        self.excluded = {s: set(v) for s, v in (excluded or {}).items()}
        self.kernel = kernel
        self.params = dict(params or {})
        self.summary = ""
        self.extra_checks = tuple(extra_checks)
        self.default_seeds: list[Element] | None = None
        self.space = None

    def __repr__(self):
        return f"<OracleEntry {self.name}>"

    # -- carrier ----------------------------------------------------------

    def slot_jets(self, slot: str, max_deg: int) -> list[Jet]:
        op, dropped = self.kernel or (None, None)
        excl = self.excluded.get(slot, ())
        keys = [m for m in sorted(self.ambient.monomials(max_deg))
                if m not in excl and m != dropped]
        return kernel_basis(keys, partial(Jet, self.ambient), op)

    def basis(self, max_deg: int) -> list[Element]:
        return [{s: f} for s in self.slots for f in self.slot_jets(s, max_deg)]

    def member(self, a: Element) -> bool:
        for s, f in a.items():
            excl = self.excluded.get(s)
            if excl and any(m in excl for m in f.terms):
                return False
            if self.kernel is not None:
                op, dropped = self.kernel
                if dropped in f.terms or not op(f).is_zero():
                    return False
        return True

    def reduce(self, a: Element) -> Element:
        if not self.excluded:
            return a
        out = {}
        for s, f in a.items():
            excl = self.excluded.get(s)
            if excl:
                f = Jet(f.ambient,
                        {m: c for m, c in f.terms.items() if m not in excl})
            out[s] = f
        return out

    # -- algebra ----------------------------------------------------------

    def parity(self, a: Element) -> int | None:
        return vec_parity(self.to_vec(a), lambda k: (
            self.slot_parity[self.slots[k[0]]] + len(k[2])) & 1)

    def _check(self, a: Element) -> None:
        """Raise CatalogError unless a maps known slots to jets on the
        entry's ambient."""
        amb = self.ambient
        if not isinstance(a, dict):
            raise CatalogError(f"{self.name} elements are slot dicts, "
                               f"not {a!r}")
        for s, f in a.items():
            if s not in self.slot_parity:
                raise CatalogError(
                    f"{self.name} has slots {self.slots}, not {s!r}")
            if not (isinstance(f, Jet)
                    and (f.ambient is amb or f.ambient == amb)):
                got = (f"a jet on {f.ambient!r}" if isinstance(f, Jet)
                       else repr(f))
                raise CatalogError(f"{self.name}: slot {s!r} needs a jet on "
                                   f"{amb!r}, got {got}")

    def left(self, elems):
        """The map b -> [a o b for a in elems]."""
        rows: dict = {}  # s2 -> (index of a, output slot) -> terms
        for k, a in enumerate(elems):
            self._check(a)
            for s1, f1 in a.items():
                for part, p in f1.parity_parts():
                    for (r1, s2), rule in self.rules.items():
                        if r1 == s1:
                            row = rows.setdefault(s2, {})
                            for s, terms in rule(part, p).items():
                                row.setdefault((k, s), []).extend(terms)
        adds = [(s2, bind_terms(row)) for s2, row in rows.items()]
        amb = self.ambient

        def products(b: Element) -> list[Element]:
            self._check(b)
            out: dict = {}
            for s2, add in adds:
                if s2 in b:
                    add(b[s2], out)
            ab: list = [{} for _ in elems]
            for (k, s), t in out.items():
                ab[k][s] = Jet._clean(amb, t)
            return [elem_clean(self.reduce(c)) for c in ab]

        return products

    def product(self, a: Element, b: Element) -> Element:
        return self.left([a])(b)[0]

    # -- flattening --------------------------------------------------------

    def to_vec(self, a: Element) -> dict:
        # Jet terms are nonzero and each slot occurs once, so the keys are
        # distinct and the vector is clean as built.
        out = {}
        for s, f in a.items():
            i = self.slots.index(s)
            out.update(((i,) + m, c) for m, c in f.terms.items())
        return out

    def from_vec(self, v: dict) -> Element:
        terms: dict = {s: {} for s in self.slots}
        for (i, ex, odds), c in v.items():
            terms[self.slots[i]][(ex, odds)] = c
        return elem_clean(
            {s: Jet(self.ambient, t) for s, t in terms.items() if t})

    def format(self, a: Element) -> str:
        a = elem_clean(a)
        if not a:
            return "0"
        parts = []
        for s in self.slots:
            if s in a:
                parts.append(f"{s}: {format_jet(a[s])}")
        return "; ".join(parts)


class FiniteEntry:
    """Entry backed by exact structure constants.  ``verify_entry`` checks
    it exactly, through ``walg.is_simple`` and ``walg.is_rigid``."""

    kind = "finite"

    def __init__(self, name: str, algebra: FinSuperAlg,
                 params: dict | None = None, summary: str = ""):
        self.name = name
        self.algebra = algebra
        self.params = dict(params or {})
        self.summary = summary

    def __repr__(self):
        return f"<FiniteEntry {self.name} dim={self.dim}>"

    @property
    def dim(self) -> int:
        return self.algebra.dim


# -- carrier for the series products over an odd Poisson algebra ----------


class OjpSpace:
    """Odd-Poisson coefficient algebra with a formal even series variable
    and a square-zero odd marker adjoined as honest generators.

    The carrier P uses even generators x_1..x_n and odd xi_1..xi_n (plus a
    distinguished last odd generator tau when m = n + 1); the series variable
    is x_{n+1} and the marker is eta = xi_{n+1}.  Working inside one ambient
    makes every sign a plain Koszul sign of the jet algebra.

    The series product is one odd contact bracket of KO type: over the
    parity parts u_p of u, u o v = sum 2 eta u_p v - (-1)^p {u_p, v}.  The
    bracket pairs x_i with xi_i for i = 1..n+1, so the series variable pairs
    with the marker, and has tau as contact generator when m = n + 1; its
    Euler operator weighs x_i and xi_i (i <= n) by 1, the series variable by
    0 and the marker by 2.  ``terms(u)`` compiles v -> u o v into (u-side
    jet, v operand) terms, and ``left(u)`` is their map.
    """

    def __init__(self, n: int, m: int):
        ints = all(type(k) is not bool and isinstance(k, int) for k in (n, m))
        if not ints or n < 0 or m not in (n, n + 1):
            raise CatalogError("carrier needs integers n >= 0 and m in "
                               f"{{n, n+1}}, got n={n!r}, m={m!r}")
        self.n = n
        self.m = m
        self.has_d = m == n + 1
        n_odd = n + 2 if self.has_d else n + 1
        self.ambient = Ambient(n + 1, n_odd, tau=self.has_d)
        self.x_i = n + 1
        self.eta_j = n + 1
        self._eta = Jet.xi(self.ambient, self.eta_j)
        # the marker is listed twice in the Euler indices: weight 2
        idx = tuple(range(1, n + 2))
        self._pairing = Pairing(
            mixed=tuple(zip(idx, idx)),
            contact=("xi", n_odd) if self.has_d else None,
            euler=(idx[:n], idx[:n] + (n + 1, n + 1)))

    def __repr__(self):
        return f"OjpSpace({self.n}, {self.m})"

    def one(self) -> Jet:
        return Jet.one(self.ambient)

    def eta(self) -> Jet:
        return self._eta

    def dx(self, f: Jet) -> Jet:
        return f.d_even(self.x_i)

    def antider(self, f: Jet, constant=0) -> Jet:
        return f.antiderivative(self.x_i, constant)

    def D(self, f: Jet) -> Jet:
        if not self.has_d:
            return Jet.zero(self.ambient)
        return f.d_tau().scale(-2)

    # -- the commutative odd-type product ---------------------------------

    def terms(self, u: Jet, sign: int = 1) -> list:
        """The terms of v -> sign * u o v: 2 eta u v less (-1)^p {u_p, v}
        for each parity part u_p of u."""
        out = [((self._eta * u).scale(2 * sign), None)]
        for part, p in u.parity_parts():
            out += pairing_terms(self._pairing, part, -sign * _sgn(p))
        return out

    def left(self, u: Jet) -> Callable[[Jet], Jet]:
        """v -> u o v, with u's terms bound once."""
        return term_map(u, self.terms(u))


# -- operator identities of the series product -----------------------------
# ``mul`` is the series product u, v -> u o v.  An operator is a (coeff,
# parity, map) triple: left multiplication l_e by a homogeneous jet e, or
# mu_e = (u -> e o u), whose parity is e's shifted by one.


def _ops(mul: Callable, tag: str, e: Jet, coeff=1) -> list:
    """l_e ("l") or mu_e ("mu") for each parity part of e."""
    if tag == "l":
        return [(coeff, p, part.__mul__) for part, p in e.parity_parts()]
    return [(coeff, p ^ 1, partial(mul, part)) for part, p in e.parity_parts()]


def _apply_ops(ops: Iterable, u: Jet) -> Jet:
    out = Jet.zero(u.ambient)
    for c, _, op in ops:
        out = out + op(u).scale(c)
    return out


def _brmu(mul: Callable, op: tuple, a: Jet, b: Jet, pa: int) -> Jet:
    """Bracket [op, mu] of an operator with the product, on (a, b)."""
    _, pt, f = op
    tb = mul(a, f(b)).scale(_sgn(pa & pt))
    return f(mul(a, b)) - (mul(f(a), b) + tb).scale(_sgn(pt))


def _brmu_sum(mul: Callable, ops: Iterable, a: Jet, b: Jet, pa: int) -> Jet:
    out = Jet.zero(a.ambient)
    for op in ops:
        out = out + _brmu(mul, op, a, b, pa).scale(op[0])
    return out


def _br2(mul: Callable, op_a: tuple, op_b: tuple, a: Jet, b: Jet,
         pa: int) -> Jet:
    """Nested bracket [A, [B, mu]] evaluated on (a, b)."""
    _, pa_op, f = op_a
    tail = (_brmu(mul, op_b, f(a), b, pa ^ pa_op)
            + _brmu(mul, op_b, a, f(b), pa).scale(_sgn(pa & pa_op)))
    return (f(_brmu(mul, op_b, a, b, pa))
            - tail.scale(_sgn(pa_op & (op_b[1] ^ 1))))


@dataclass
class RelationReport:
    """Outcome of the operator-identity suite for a series carrier."""

    carrier: str
    samples: int
    results: dict
    failures: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.results.values())


def ojp_relation_suite(space: OjpSpace, vw_pairs: Sequence,
                       probe_pairs: Sequence) -> RelationReport:
    """Check the structure-operator identities of the series product.

    ``vw_pairs`` supplies the homogeneous subscript elements, ``probe_pairs``
    the homogeneous nonzero arguments the resulting operators are evaluated
    on; other elements raise CatalogError.  The integration constant of
    every antiderivative is swept over 0 and 1; the identities must
    hold for any choice.  Each left factor is prepared by ``space.left``
    once and each distinct product made once per call, and the terms free
    of the constant are made before the sweep.
    """
    names = ("op_mul_mul", "op_mul_left", "op_left_left", "unit_product",
             "nested_left_left", "nested_left_mul", "nested_mul_left",
             "nested_mul_mul")
    results = {k: True for k in names}
    failures: dict = {}
    probes = []
    for a, b in probe_pairs:
        for u in (a, b):
            if u.parity() is None:
                raise CatalogError("probe elements must be homogeneous and "
                                   f"nonzero, got {format_jet(u)}")
            if u not in probes:
                probes.append(u)
    lefts, products = {}, {}  # u -> left(u) and (u, v) -> u o v, by value

    def mul(u: Jet, v: Jet) -> Jet:
        uv = products.get((u, v))
        if uv is None:
            if u not in lefts:
                lefts[u] = space.left(u)
            uv = products[u, v] = lefts[u](v)
        return uv

    def note(name, v, w, extra=""):
        if results[name]:
            results[name] = False
            failures[name] = (
                f"v={format_jet(v)}, w={format_jet(w)}{extra}")

    eta = space.eta()
    for v, w in vw_pairs:
        pv, pw = v.parity(), w.parity()
        if pv is None or pw is None:
            raise CatalogError("subscript elements must be homogeneous")
        vw = v * w
        ovw = mul(v, w)
        e1 = ovw - (eta * vw).scale(2)
        e2 = eta * ovw + space.dx(vw) + (eta * space.D(vw)).scale(2)
        s1_ops = (_ops(mul, "mu", e1, _sgn(pv + 1))
                  + _ops(mul, "l", e2, 2 * _sgn(pv + 1)))
        s2_ops = _ops(mul, "l", e1) + _ops(mul, "l", space.D(v) * w)
        for u in probes:
            lhs = (mul(v, mul(w, u))
                   - mul(w, mul(v, u)).scale(_sgn((pv ^ 1) & (pw ^ 1))))
            if not (lhs - _apply_ops(s1_ops, u)).is_zero():
                note("op_mul_mul", v, w, f", u={format_jet(u)}")
            lhs = mul(v, w * u) - (w * mul(v, u)).scale(_sgn((pv ^ 1) & pw))
            if not (lhs - _apply_ops(s2_ops, u)).is_zero():
                note("op_mul_left", v, w, f", u={format_jet(u)}")
            lhs = v * (w * u) - (w * (v * u)).scale(_sgn(pv & pw))
            if not lhs.is_zero():
                note("op_left_left", v, w, f", u={format_jet(u)}")
            lhs = mul(space.one(), u) - (eta * u).scale(2) + space.D(u)
            if not lhs.is_zero():
                note("unit_product", v, w, f", u={format_jet(u)}")
        # The closed form of the double multiplication-operator bracket is
        # established for subscripts killed by the tail derivation; other
        # subscripts stay in the span of the structure operators but have no
        # uniform expression in these shapes.
        d_free = space.D(v).is_zero() and space.D(w).is_zero()
        (lv,), (lw,) = _ops(mul, "l", v), _ops(mul, "l", w)
        (mv,), (mw,) = _ops(mul, "mu", v), _ops(mul, "mu", w)
        e7 = mul(w, v) - (eta * (w * v)).scale(2)
        ml_ops = _ops(mul, "l", e7) + _ops(mul, "l", space.D(w) * v)
        # Per probe pair, lhs - rhs of each nested identity less its terms in
        # the constant (mul_left has none, so only whether it holds).
        fixed = []
        for a, b in probe_pairs:
            pa = a.parity()
            lm = _br2(mul, lv, mw, a, b, pa)
            ml = (_br2(mul, mw, lv, a, b, pa) - lm.scale(_sgn(pv & (pw ^ 1)))
                  - _brmu_sum(mul, ml_ops, a, b, pa))
            mm = None
            if d_free:
                mm = (_br2(mul, mv, mw, a, b, pa) - _brmu_sum(
                    mul, _ops(mul, "l", mul(v, eta * w), 2), a, b, pa))
            fixed.append((a, b, pa, _br2(mul, lv, lw, a, b, pa)
                          + _brmu_sum(mul, _ops(mul, "l", vw), a, b, pa),
                          lm.scale(_sgn(pv + 1))
                          - _brmu_sum(mul, _ops(mul, "mu", vw), a, b, pa),
                          ml.is_zero(), mm))
        for const in (0, 1):
            tag = f", constant={const}"

            def block(prime):
                """[mu_{t - 2*eta*s} - 2 l_{eta*t}, mu] with t' = prime and
                s the matching antiderivative of D(t)."""
                t = space.antider(prime, const)
                s = space.antider(space.D(t), const)
                return (_ops(mul, "mu", t - (eta * s).scale(2))
                        + _ops(mul, "l", eta * t, -2))

            ll_ops = block(ovw - (eta * vw).scale(2) + space.D(vw))
            lm_ops = block(space.dx(v) * w + (eta * ovw).scale(2)
                           + (eta * space.D(vw)).scale(2))
            z8 = space.antider(space.dx(v) * w, const)
            mm_ops = (block(mul(v, space.dx(w)))
                      + _ops(mul, "mu", eta * z8, -2))
            for a, b, pa, ll, lm, ml_ok, mm in fixed:
                if not (ll - _brmu_sum(mul, ll_ops, a, b, pa)).is_zero():
                    note("nested_left_left", v, w, tag)
                if not (lm - _brmu_sum(mul, lm_ops, a, b, pa)).is_zero():
                    note("nested_left_mul", v, w, tag)
                if not ml_ok:
                    note("nested_mul_left", v, w, tag)
                if mm is not None and not (mm - _brmu_sum(
                        mul, mm_ops, a, b, pa).scale(_sgn(pv + 1))).is_zero():
                    note("nested_mul_mul", v, w, tag)
    return RelationReport(repr(space), len(vw_pairs), results, failures)


def ojp_probe_pairs(space: OjpSpace, count: int) -> list:
    """Deterministic homogeneous probe pairs of low even degree."""
    singles = [Jet(space.ambient, {m: 1})
               for m in sorted(space.ambient.monomials(1))]
    pairs = [(a, b) for a in singles for b in singles]
    if len(pairs) <= count:
        return pairs
    return random.Random(9).sample(pairs, count)


# -- finite builders -------------------------------------------------------


def _entry_lw_0_2() -> FiniteEntry:
    alg = FinSuperAlg.from_anticommutative(
        (0, 1), 0,
        {(0, 1): {1: 1}, (1, 0): {1: -1}, (1, 1): {0: 1}},
        ("a", "abar"))
    return FiniteEntry("LW_0_2", alg)


# name -> (family, even weights, odd weights, mu): mu is a jet's text for a
# function family and (coefficient, slot) pairs for a field family.  On each
# row the part of g_1 of mu's parity maps injectively to tables, so mu is the
# only element of it that gives the entry's table.  LW_0_2 stays a hand
# table: W(1|1) with weights (1|0) and the odd mu = -1/2*x1^2*xi1*dx1 -
# x1*dxi1 gives its table with the two basis vectors swapped, and no row of
# W, S, H, K, HO, SHO or KO on up to (2|2) generators, weights -1..2 and 60
# random odd mu each gave it in its stored basis order.
_GRADED: dict = {
    "JS_0_2": ("H", (1, 1), (), "1/6*x1^3 + 1/6*x2^3"),
    "JW_0_4": ("W", (), (1, 1, 0), (
        ("-xi1*xi2*xi3", "dxi1"), ("-xi1*xi2*xi3", "dxi2"), ("-xi1", "dxi3"))),
    "JW_0_8": ("W", (), (1, 1, 0, 0), (
        ("-xi1*xi2*xi3", "dxi1"), ("-xi1*xi2*xi3", "dxi2"),
        ("-xi1 - xi2*xi3*xi4", "dxi3"), ("-xi2", "dxi4"))),
    "JS_0_8": ("S", (), (1, 1, 0, 0), (
        ("-xi1*xi2*xi3 - xi1*xi2*xi4", "dxi1"), ("-xi1*xi2*xi3", "dxi2"),
        ("-xi1 - xi2*xi3*xi4", "dxi3"),
        ("-xi2 - xi1*xi3*xi4 + xi2*xi3*xi4", "dxi4"))),
    "JS_0_16": ("S", (), (1, 1, 0, 0, 0), (
        ("-xi1 - xi2*xi3*xi4", "dxi3"), ("-xi2", "dxi4"),
        ("-xi1*xi3*xi4 - xi2*xi3*xi4 - xi2*xi4*xi5", "dxi5"))),
}


def _graded_entry(name: str) -> FiniteEntry:
    family, even, odd, text = _GRADED[name]
    spec = GradingSpec(even, odd)
    mu = FamilyRealization(family, spec).parse(text)
    return FiniteEntry(name, product_from_mu(family, spec, mu))


def _graded_summary(name: str) -> str:
    family, even, odd, _ = _GRADED[name]
    return (f"g_-1 of {family}({len(even)}|{len(odd)}) graded by even weights "
            f"{even} and odd weights {odd}, with x o y = [[mu, x], y] for a "
            "mu in g_1")


def product_from_mu(family: str, spec: GradingSpec, mu) -> FinSuperAlg:
    """The product x o y = [[mu, x], y] on the bottom component g_-1 of a
    graded family, as a table over its monomial basis.

    ``mu`` must be parity-homogeneous and of pure weighted degree one, and
    g_-2 must vanish; then the product is supersymmetric, of mu's parity.
    An odd mu gives an anticommutative algebra, stored as from_anticommutative
    stores one: the supersymmetric product on g_-1 with
    anticommutative_presentation set.  Basis vectors are ordered by slot and
    even exponents, then by their odd monomial's degree and indices, and
    labelled with their printed form.  The coefficients' x-degrees are capped
    at 4; a basis that is not monomial, or a product leaving that window,
    raises CatalogError, as do an unknown family, a spec that is no
    GradingSpec and a mu that is no element of the family.  The family's
    realization supplies mu's kind, the parser and the labels' format.
    """
    try:
        real = FamilyRealization(family, spec)
        real.check(mu, "mu")
    except ValueError as e:
        raise CatalogError(*e.args) from None
    parity = real.parity(mu)
    if parity is None:
        raise CatalogError("mu must be parity-homogeneous")
    if real.degrees(mu) != {1}:
        raise CatalogError(
            f"mu must have pure degree 1, found degrees {real.degrees(mu)}")
    if real.basis_of_degree(-2, 4):
        raise CatalogError("g_-2 must vanish for a supersymmetric product")
    keys = []
    for x in real.basis_of_degree(-1, 4):
        vec = real.to_vec(x)
        if list(vec.values()) != [1]:
            raise CatalogError(f"g_-1 basis vector {x!r} is not a monomial")
        keys += vec
    keys.sort(key=lambda k: (k[:-1], len(k[-1]), k[-1]))
    index = {k: i for i, k in enumerate(keys)}
    basis = [real.from_vec({k: 1}) for k in keys]
    labels = [real.format(x) for x in basis]
    table = {}
    for i, x in enumerate(basis):
        mux = real.bracket(mu, x)
        for j in range(i, len(basis)):
            cell = {}
            for k, c in real.to_vec(real.bracket(mux, basis[j])).items():
                if k not in index:
                    raise CatalogError(f"[[mu, {labels[i]}], {labels[j]}] "
                                       "leaves the degree -1 window")
                cell[index[k]] = c
            table[(i, j)] = cell
    return FinSuperAlg([real.parity(x) for x in basis], parity, table, labels,
                       anticommutative_presentation=parity)


# -- oracle builders: shared rows -------------------------------------------
# A rule's g operands: None is g itself, ("x", i) the derivative in x_i.

_X1, _X2 = ("x", 1), ("x", 2)


def _dx(f: Jet) -> Jet:
    return f.d_even(1)


def _lie(f: Jet, c=1) -> list:
    """Terms of c (f g' - f' g), the coefficient of c [f d, g d] for the
    one-variable fields f d and g d."""
    return [(f.scale(c), _X1), (_dx(f).scale(-c), None)]


def _field_terms(h: Jet, X: VectorField) -> list:
    """Terms of g -> h X(g): h times each coefficient of X, with the
    derivative it multiplies."""
    return [(h * c, slot) for slot, c in X.coeffs.items()]


def _fd_rules(derivs: dict, *, plus: bool, cross: dict | None = None) -> dict:
    """Rows of the bracket of f D_a and g D_b over the named derivation
    slots ``derivs``, vector fields all of parity t: the formal plus- or
    minus-bracket f D_a(g) D_b +/- (-1)^eps g D_b(f) D_a, eps the product
    of p(f) + t and p(g) + t.  Reordered f-side first, its second term is
    s D_b(f) g D_a with s = +/-1 times (-1)^{t (p(f) + 1)}, free of p(g).
    ``cross`` maps a slot to a coefficient jet c: c f g is added to that
    slot on the row of the first slot with the second, and -c f g on its
    mirror row."""
    names = tuple(derivs)
    odd = derivs[names[0]].parity()
    corner = ({(names[0], names[1]): 1, (names[1], names[0]): -1}
              if cross else {})

    def row(a, b):
        k = corner.get((a, b))

        def rule(f, p):
            out = {b: _field_terms(f, derivs[a])}
            s = (1 if plus else -1) * _sgn(odd & (p ^ 1))
            out.setdefault(a, []).append((derivs[b](f).scale(s), None))
            for slot, c in cross.items() if k else ():
                out.setdefault(slot, []).append(((c * f).scale(k), None))
            return out
        return rule

    return {(a, b): row(a, b) for a in names for b in names}


def _bivector_rules(z: VectorField | None, pairs: Sequence) -> dict:
    """The one row of the skew bracket of the bivector of vector fields z
    and wedge pairs (X_i, Y_i):
    Z(f) g - f Z(g) + sum X_i(f) Y_i(g) - Y_i(f) X_i(g)."""
    def rule(f, p):
        terms = [] if z is None else [(z(f), None)] + _field_terms(-f, z)
        for X, Y in pairs:
            terms += _field_terms(X(f), Y) + _field_terms(-Y(f), X)
        return {"fun": terms}

    return {("fun", "fun"): rule}


# -- oracle builders: commutative series entries ---------------------------


def _entry_js_1_1() -> OracleEntry:
    return OracleEntry(
        "JS_1_1", Ambient(1, 0), {"field": 0}, "commutative",
        {("field", "field"): lambda f, p: {
            "field": [(_dx(f), None), (f, _X1)]}})


def _entry_jsho_2_2() -> OracleEntry:
    return OracleEntry(
        "JSHO_2_2", Ambient(2, 0), {"field": 0, "bar": 1}, "commutative",
        {("field", "field"): lambda f, p: {
            "field": [(f, _X1), (_dx(f), None)]},
         ("field", "bar"): lambda f, p: {"bar": [(f, _X1)]},
         ("bar", "field"): lambda f, p: {"bar": [(_dx(f), None)]},
         ("bar", "bar"): lambda f, p: {
             "field": [(_dx(f), _X2), (-f.d_even(2), _X1)]}})


def _entry_jsko_1_2() -> OracleEntry:
    return OracleEntry(
        "JSKO_1_2", Ambient(1, 0), {"field": 0, "bar": 1}, "commutative",
        {("field", "field"): lambda f, p: {
            "field": [(f, _X1), (_dx(f), None)]},
         ("field", "bar"): lambda f, p: {"bar": [(f, _X1)]},
         ("bar", "field"): lambda f, p: {"bar": [(_dx(f), None)]},
         ("bar", "bar"): lambda f, p: {"field": _lie(f, 2)}})


def _entry_js_1_8(alpha) -> OracleEntry:
    amb = Ambient(1, 2)
    one = Jet.one(amb)
    x = Jet.x(amb, 1)
    xi1, xi2 = Jet.xi(amb, 1), Jet.xi(amb, 2)
    d1 = VectorField(amb, {("xi", 1): one, ("x", 1): xi1 + xi2.scale(alpha)})
    d2 = VectorField(amb, {("xi", 2): one, ("x", 1): x * xi2,
                           ("xi", 1): (xi1 * xi2).scale(-1)})
    return OracleEntry(
        "JS_1_8", amb, {"D1": 1, "D2": 1}, "commutative",
        _fd_rules({"D1": d1, "D2": d2}, plus=True), params={"alpha": alpha})


# -- oracle builders: anticommutative small families -----------------------


def _entry_lw_1_2() -> OracleEntry:
    return OracleEntry(
        "LW_1_2", Ambient(1, 0), {"fun": 0, "bar": 1}, "anticommutative",
        {("fun", "bar"): lambda f, p: {"bar": [(f, None)]},
         ("bar", "fun"): lambda f, p: {"bar": [(-f, None)]},
         ("bar", "bar"): lambda f, p: {
             "fun": [(f.scale(2) - _dx(f), None), (-f, _X1)]}})


def _entry_lho_1_2() -> OracleEntry:
    return OracleEntry(
        "LHO_1_2", Ambient(1, 0), {"fun": 0, "bar": 1}, "anticommutative",
        {("fun", "bar"): lambda f, p: {"bar": [(_dx(f), None)]},
         ("bar", "fun"): lambda f, p: {"bar": [(-f, _X1)]},
         ("bar", "bar"): lambda f, p: {"fun": [(f.scale(2), None)]}},
        excluded={"fun": {((0,), ())}})


def _entry_lshop_2_2() -> OracleEntry:
    amb = Ambient(2, 0)
    u = Jet.one(amb) + Jet.x(amb, 1)
    # terms of {f, g} = d1(f) d2(g) - d2(f) d1(g), d1 = u d/dx1, d2 = d/dx2
    br = lambda f: [(u * _dx(f), _X2), (-(u * f.d_even(2)), _X1)]
    return OracleEntry(
        "LSHOp_2_2", amb, {"fun": 0, "bar": 1}, "anticommutative",
        {("fun", "fun"): lambda f, p: {"fun": br(-f)},
         ("fun", "bar"): lambda f, p: {
             "bar": br(f) + [(f.d_even(2), None)]},
         ("bar", "fun"): lambda f, p: {"bar": br(f) + [(-f, _X2)]},
         ("bar", "bar"): lambda f, p: {"fun": [(f.scale(-2), None)]}},
        excluded={"fun": {((0, 0), ())}})


def _entry_lwa_1_2(alpha) -> OracleEntry:
    amb = Ambient(1, 0)
    w = Jet.const(amb, alpha) + Jet.x(amb, 1)
    return OracleEntry(
        "LWa_1_2", amb, {"field": 0, "fun": 0}, "anticommutative",
        {("field", "field"): lambda f, p: {"field": _lie(f)},
         ("field", "fun"): lambda f, p: {
             "field": [(-(w * f), None)], "fun": [(f, _X1)]},
         ("fun", "field"): lambda f, p: {
             "field": [(w * f, None)], "fun": [(-_dx(f), None)]}},
        params={"alpha": alpha})


def _entry_ls_1_3() -> OracleEntry:
    return OracleEntry(
        "LS_1_3", Ambient(1, 0), {"field": 0, "fun": 1, "tilde": 1},
        "anticommutative",
        {("field", "field"): lambda f, p: {"field": _lie(f)},
         ("field", "fun"): lambda f, p: {"fun": [(f, _X1)]},
         ("fun", "field"): lambda f, p: {"fun": [(-_dx(f), None)]},
         ("field", "tilde"): lambda f, p: {"tilde": [(f, _X1)]},
         ("tilde", "field"): lambda f, p: {"tilde": [(-_dx(f), None)]},
         ("fun", "tilde"): lambda f, p: {"field": [(f, None)]},
         ("tilde", "fun"): lambda f, p: {"field": [(f, None)]}})


def _entry_lwa_2_2(alpha) -> OracleEntry:
    amb = Ambient(2, 0)
    d1, d2 = (VectorField.partial(amb, "x", i) for i in (1, 2))
    cross = {"D1": Jet.one(amb) + Jet.x(amb, 1),
             "D2": Jet.x(amb, 2).scale(-alpha)}
    return OracleEntry(
        "LWa_2_2", amb, {"D1": 0, "D2": 0}, "anticommutative",
        _fd_rules({"D1": d1, "D2": d2}, plus=False, cross=cross),
        params={"alpha": alpha})


def _entry_lsa_2_2(alpha) -> OracleEntry:
    amb = Ambient(2, 0)
    x1, x2 = Jet.x(amb, 1), Jet.x(amb, 2)
    w = Jet.one(amb) + x1.scale(alpha) + x1 * x2
    derivs = {"D1": VectorField.partial(amb, "x", 1),
              "D2": VectorField(amb, {("x", 2): w})}
    return OracleEntry(
        "LSa_2_2", amb, {"D1": 0, "D2": 0}, "anticommutative",
        _fd_rules(derivs, plus=False, cross={"D1": x1}),
        params={"alpha": alpha})


def _entry_lskop_1_2(beta) -> OracleEntry:
    _check_lskop_1_2_beta(beta)
    amb = Ambient(1, 0)
    x = Jet.x(amb, 1)
    return OracleEntry(
        "LSKOp_1_2", amb, {"field": 0, "bar": 1}, "anticommutative",
        {("field", "field"): lambda f, p: {"field": _lie(f, -beta)},
         ("field", "bar"): lambda f, p: {
             "bar": [(f.scale(beta), _X1), (-_dx(f), None)]},
         ("bar", "field"): lambda f, p: {
             "bar": [(f, _X1), (_dx(f).scale(-beta), None)]},
         ("bar", "bar"): lambda f, p: {"field": [(x * f, None)]}},
        params={"beta": beta})


def _check_lskop_1_2_beta(beta) -> None:
    beta = F(beta)
    bad = beta in (0, 1)
    if not bad and beta > 2:
        t = beta - 2
        bad = t.numerator in (1, 2)
    if bad:
        raise CatalogError(
            "beta must avoid 0, 1 and the values 2 + 1/b, 2 + 2/b for "
            f"positive integers b; got {beta}")


def _entry_lha_1_2(alpha) -> OracleEntry:
    amb = Ambient(1, 0)
    w = Jet.const(amb, alpha) + Jet.x(amb, 1)
    return OracleEntry(
        "LHa_1_2", amb, {"field": 0, "bar": 1}, "anticommutative",
        {("field", "field"): lambda f, p: {"field": _lie(f)},
         ("field", "bar"): lambda f, p: {"bar": [(f, _X1)]},
         ("bar", "field"): lambda f, p: {"bar": [(-_dx(f), None)]},
         ("bar", "bar"): lambda f, p: {
             "field": [((w * _dx(f)).scale(-2), _X1)]}},
        excluded={"bar": {((0,), ())}}, params={"alpha": alpha})


# -- oracle builders: skew brackets from bivectors -------------------------


def _entry_lhoa_3_1(alpha) -> OracleEntry:
    amb = Ambient(3, 0)
    x1 = Jet.x(amb, 1)
    w = x1.scale(alpha) + x1 * x1
    pairs = [(VectorField.partial(amb, "x", 1), VectorField.partial(amb, "x", 2)),
             (VectorField(amb, {("x", 1): w}), VectorField.partial(amb, "x", 3))]
    return OracleEntry(
        "LHOa_3_1", amb, {"fun": 0}, "anticommutative",
        _bivector_rules(None, pairs), excluded={"fun": {((0, 0, 0), ())}},
        params={"alpha": alpha})


def _entry_lshoa_4_1(alpha) -> OracleEntry:
    amb = Ambient(4, 0)
    w = Jet.const(amb, alpha) + Jet.x(amb, 1)
    pairs = [(VectorField.partial(amb, "x", 1), VectorField.partial(amb, "x", 2)),
             (VectorField(amb, {("x", 3): w}), VectorField.partial(amb, "x", 4))]
    return OracleEntry(
        "LSHOa_4_1", amb, {"fun": 0}, "anticommutative",
        _bivector_rules(None, pairs), excluded={"fun": {((0,) * 4, ())}},
        params={"alpha": alpha})


def _entry_lko_2_1() -> OracleEntry:
    amb = Ambient(2, 0)
    z = VectorField(amb, {("x", 1): Jet.const(amb, 2)})
    w = Jet.x(amb, 1) + Jet.x(amb, 2)
    pairs = [(VectorField(amb, {("x", 1): w}), VectorField.partial(amb, "x", 2))]
    return OracleEntry("LKO_2_1", amb, {"fun": 0}, "anticommutative",
                       _bivector_rules(z, pairs))


def _entry_lskoa_3_1(alpha, beta) -> OracleEntry:
    if alpha != 0 and beta == F(1, 3):
        raise CatalogError(
            "the pair alpha != 0, beta = 1/3 is outside the family; "
            f"got alpha={alpha}, beta={beta}")
    amb = Ambient(3, 0)
    x1, x2 = Jet.x(amb, 1), Jet.x(amb, 2)
    z = VectorField(amb, {("x", 3): (Jet.const(amb, alpha)
                                     + x1.scale(2)).scale(2)})
    w2 = (x1.scale(alpha) + x1 * x1).scale(-3 * beta)
    w3 = ((Jet.const(amb, alpha) + x1.scale(2)) * x2).scale(-1)
    pairs = [(VectorField.partial(amb, "x", 1), VectorField.partial(amb, "x", 2)),
             (VectorField(amb, {("x", 1): w2}), VectorField.partial(amb, "x", 3)),
             (VectorField(amb, {("x", 2): w3}), VectorField.partial(amb, "x", 3))]
    return OracleEntry(
        "LSKOa_3_1", amb, {"fun": 0}, "anticommutative",
        _bivector_rules(z, pairs), params={"alpha": alpha, "beta": beta})


# -- oracle builders: kernel carriers --------------------------------------


def _entry_lsho(n: int) -> OracleEntry:
    amb = Ambient(n, n)
    xi1 = Jet.xi(amb, 1)
    w = Jet.x(amb, 2) * xi1 * Jet.xi(amb, 2)
    top = ((0,) * n, tuple(range(1, n + 1)))
    twist = Jet.one(amb) + w.scale(2)
    pairing = _odd_pairing(amb)

    def rule(f1, p1):
        m = ((xi1 * f1).scale(2 * _sgn(p1 + 1))
             + buttin(w, f1).scale(2 * _sgn(p1)))
        return {"j": pairing_terms(pairing, twist * f1) + [(m, None)]}

    return OracleEntry(
        f"LSHO_{n}_{2 ** (n - 1)}", amb, {"j": 1}, "anticommutative",
        {("j", "j"): rule}, kernel=(odd_laplacian, top), params={"n": n})


def _contact_rules(amb: Ambient, c, xx: Jet | None = None) -> dict:
    """The twisted contact row of LSKO_n, with c = beta (n + 1).  LSKOp_2_4
    adds the mixed odd factor ``xx`` to the twist and its own term.  The
    product is {twist f1, f2} + m f2, every multiple of f2 gathered in m.
    """
    xi1 = Jet.xi(amb, 1)
    tau = Jet.tau_gen(amb)
    w = xi1 * tau
    twist, lift = Jet.one(amb) + w, w
    if xx is not None:
        twist, lift = twist - xx, w + xx
    pairing = _odd_pairing(amb)

    def rule(f1, p1):
        m = xi1 * (f1.euler().scale(2) - f1.scale(c))
        m = m + k_bracket(lift, f1) - (tau * f1.d_even(1)).scale(2)
        m = m.scale(_sgn(p1 + 1))
        if xx is not None:
            m = m + (f1.d_tau() * xx).scale(2)
        return {"j": pairing_terms(pairing, twist * f1) + [(m, None)]}

    return {("j", "j"): rule}


def _entry_lsko(n: int, beta) -> OracleEntry:
    beta = F(beta)
    if beta == F(4, n + 1):
        raise CatalogError(
            f"beta = 4/(n+1) is outside the family; got beta={beta} at n={n}")
    amb = Ambient(n, n + 1, tau=True)

    def op(f: Jet) -> Jet:
        return div_beta(f, beta) + f.d_tau().scale(1 - beta)

    top_all = ((0,) * n, tuple(range(1, n + 2)))
    top_xi = ((0,) * n, tuple(range(1, n + 1)))
    special = {F(1): top_all, F(n - 1, n + 1): top_xi}.get(beta)
    return OracleEntry(
        f"LSKO_{n}_{2 ** n}", amb, {"j": 1}, "anticommutative",
        _contact_rules(amb, beta * (n + 1)), kernel=(op, special),
        params={"n": n, "beta": beta})


def _entry_lskop_2_4() -> OracleEntry:
    amb = Ambient(2, 3, tau=True)
    xx = Jet.xi(amb, 1) * Jet.xi(amb, 2)
    return OracleEntry(
        "LSKOp_2_4", amb, {"j": 1}, "anticommutative",
        _contact_rules(amb, 3, xx),
        kernel=(lambda f: div_beta(f, 1), ((0, 0), (1, 2, 3))))


# -- oracle builders: series products over an odd Poisson carrier ----------


def _ojp_checks(entry: OracleEntry) -> tuple[bool, str]:
    space = entry.space
    pairs = ojp_probe_pairs(space, 6)
    rep = ojp_relation_suite(space, pairs, pairs[:3])
    if rep.passed:
        return True, f"{rep.samples} subscript pairs, both constants"
    bad = ", ".join(f"{k}: {v}" for k, v in rep.failures.items())
    return False, bad


def _entry_series(n: int, m: int, twin: bool) -> OracleEntry:
    """OJP_n_m: u o v, or its parity-reversed twin LP_n_m: (-1)^p(u) u o v."""
    space = OjpSpace(n, m)

    def rule(f, p):
        return {"j": space.terms(f, _sgn(p & twin))}

    checks = () if twin else (("operator_relations", _ojp_checks),)
    entry = OracleEntry(
        f"{'LP' if twin else 'OJP'}_{n}_{m}", space.ambient, {"j": int(twin)},
        "anticommutative" if twin else "commutative", {("j", "j"): rule},
        params={"n": n, "m": m}, extra_checks=checks)
    entry.space = space
    if not twin:
        entry.default_seeds = [{"j": space.eta()}, {"j": space.one()}, {}]
    return entry


# -- verification ----------------------------------------------------------


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    name: str
    order: int | None
    passed: bool
    checks: list
    stats: dict


def _check_order(order, least: int) -> None:
    """Raise CatalogError unless order is an int of at least ``least``."""
    if type(order) is not int or order < least:
        raise CatalogError(
            f"order must be an integer >= {least}, got {order!r}")


def verify_entry(entry, order: int | None = None,
                 seed: int = 9) -> VerifyReport:
    """Run an entry's defining checks.

    Finite entries are checked exactly: simplicity, rigidity, and the
    operator dimensions.  Oracle entries are sampled inside the degree
    window of ``order`` (4 when None; an integer >= 0 otherwise, whose
    window must not be empty): declared symmetry, carrier closure of
    products, and any entry-specific checks (OJP's operator relations).
    """
    if order is not None:
        _check_order(order, 0)
    if entry.kind == "finite":
        simp = is_simple(entry.algebra)
        rig = is_rigid(entry.algebra)
        why = "" if rig.rigid else (
            f"R has dim {rig.dim_r}; outside the one-step orbit: "
            f"{format_product(entry.algebra, rig.witness)}")
        checks = [Check("simple", simp.simple),
                  Check("rigid", rig.rigid, why)]
        stats = {"dim": entry.dim, "simple": simp.simple,
                 "rigid": rig.rigid, "dim_str": rig.dim_str,
                 "dim_r": rig.dim_r}
        return VerifyReport(entry.name, None, simp.simple and rig.rigid,
                            checks, stats)

    eff = 4 if order is None else order
    hi = entry.basis(eff)
    if not hi:
        raise CatalogError(f"{entry.name} has no basis elements of degree "
                           f"<= {eff}")
    rng = random.Random(seed)
    lo = entry.basis(min(2, eff))
    step = max(1, len(lo) // 18)
    lo = lo[::step][:18]
    n = len(lo)
    # Pairs index sample: the lo x lo block, then 12 pairs drawn from hi.
    sample = lo + [hi[rng.randrange(len(hi))] for _ in range(24)]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    pairs += [(k, k + 1) for k in range(n, n + 24, 2)]

    # Each ordered product once, the lo x lo block a column per right factor.
    left = entry.left(lo)
    prods = {(i, j): ab for j in range(n) for i, ab in enumerate(left(lo[j]))}
    for i, j in pairs[n * n:]:
        prods[i, j] = entry.product(sample[i], sample[j])
        prods[j, i] = entry.product(sample[j], sample[i])
    flat = {k: entry.to_vec(ab) for k, ab in prods.items()}
    parity = [entry.parity(a) for a in sample]

    details = {}
    sym_sign = 1 if entry.symmetry == "commutative" else -1
    for i, j in pairs:
        a, b = sample[i], sample[j]
        if "symmetry" not in details:
            mirror = flat[j, i]
            if sym_sign * _sgn(parity[i] & parity[j]) < 0:
                mirror = {key: -c for key, c in mirror.items()}
            if flat[i, j] != mirror:
                details["symmetry"] = (f"broken at {entry.format(a)} | "
                                       f"{entry.format(b)}")
        if "closure" not in details and not entry.member(prods[i, j]):
            details["closure"] = (f"product of {entry.format(a)} and "
                                  f"{entry.format(b)} leaves the carrier")
    checks = [Check(name, name not in details,
                    details.get(name, f"{len(pairs)} pairs"))
              for name in ("symmetry", "closure")]
    del prods, flat
    for name, fn in entry.extra_checks:
        ok, detail = fn(entry)
        checks.append(Check(name, ok, detail))
    stats = {"window_dim": len(hi), "sample_pairs": len(pairs),
             "seed": seed}
    return VerifyReport(entry.name, eff, all(c.passed for c in checks),
                        checks, stats)


# -- ideal spot checks ------------------------------------------------------


@dataclass
class SeedReach:
    seed: str
    dim: int
    reached: int
    targets: int
    missing: list
    complete: bool


@dataclass
class SpotIdealReport:
    name: str
    order: int
    seeds: list

    @property
    def passed(self) -> bool:
        return all(s.complete or s.dim == 0 for s in self.seeds)


def ideal_spot_checks(entry, seeds: Sequence | None = None,
                      order: int = 3) -> SpotIdealReport:
    """Grow the two-sided ideal of each seed inside the degree window of an
    oracle entry and report which window basis elements it reaches.

    ``order`` is a positive integer: the targets are the window basis
    elements of degree at most order - 1, and there must be one.  Seeds
    default to ``entry.default_seeds``.  A finite entry, no seed, or a seed
    that is no element of the entry raises CatalogError; a finite entry's
    ideal check is ``walg.is_simple``.

    Seeds and products are cut back into the window (their flattened
    vectors keep the terms of degree <= order), so the closure is the
    window shadow of the true ideal; a seed that reaches every target is
    reported complete.  The ideal comes from ``linalg.ideal_closure``: left
    products with every partner first, right products too only while that
    span stays proper.  That is exact for any product; the entry's symmetry
    is never assumed, it only makes the right products idle when a
    homogeneous seed fills the window.  A queued vector is converted and
    bound once for all partners on each side.

    Each SeedReach's ``dim`` is the dimension of that closure.  It can
    exceed the dimension of the window basis's span: truncating a product
    need not land back in that span (on LSKOp_2_4 at order 3 the basis spans
    40 dimensions and a closure reaches 80).  The closure stops once it
    fills the coordinates that the seed and every truncated product can
    occupy: each (slot, monomial of degree <= order) that the slot's
    ``excluded`` set keeps, and the seed's own keys.  The window span is not
    a valid bound for that stop, since products leave it.
    """
    if entry.kind != "oracle":
        raise CatalogError(f"{entry.name} is finite: its ideal check is "
                           "walg.is_simple")
    _check_order(order, 1)
    if seeds is not None and not seeds:
        raise CatalogError(f"{entry.name}: the spot check needs a seed")
    for seed in seeds or ():
        entry._check(seed)

    def window(a):
        return {k: c for k, c in entry.to_vec(a).items()
                if sum(k[1]) <= order}

    basis = entry.basis(order)
    vecs = [window(b) for b in basis]
    partners = [entry.from_vec(p) for p in span_reduce(vecs).rows]
    by_partners = entry.left(partners)

    def lefts(v):
        return [window(uv) for uv in by_partners(entry.from_vec(v))]

    def rights(v):
        by_v = entry.left([entry.from_vec(v)])
        return [window(by_v(u)[0]) for u in partners]

    if seeds is None:
        seeds = entry.default_seeds
        if seeds is None:
            seeds = [basis[0], {}] if basis else [{}]

    def deg(b):
        return max((f.even_degree() for f in b.values()), default=0)
    targets = [(b, v) for b, v in zip(basis, vecs) if deg(b) <= order - 1]
    if not targets:
        raise CatalogError(f"{entry.name} has no window elements of degree "
                           f"<= {order - 1}")
    coords = {(i,) + m for i, s in enumerate(entry.slots)
              for m in entry.ambient.monomials(order)
              if m not in entry.excluded.get(s, ())}

    out = []
    for seed in seeds:
        sv = window(seed)
        closed = ideal_closure(span_reduce([sv] if sv else []), lefts, rights,
                               full_dim=len(coords.union(sv)))
        missing = [entry.format(b) for b, v in targets
                   if not closed.contains(v)]
        out.append(SeedReach(entry.format(seed), closed.dim,
                             len(targets) - len(missing), len(targets),
                             missing[:8], not missing))
    return SpotIdealReport(entry.name, order, out)


# -- registry ---------------------------------------------------------------


# name -> (params, constraints, kind, summary, builder).  registry_listing
# reads kind and summary here, and make attaches the summary to the entry
# it builds, so listing the registry builds nothing.  The finite rows are the
# graded rows, then LW_0_2's hand table.
_FIXED: dict = {
    **{name: ((), "", "finite", _graded_summary(name),
              partial(_graded_entry, name)) for name in _GRADED},
    "LW_0_2": ((), "", "finite",
        "even element acting on an odd copy whose square returns it",
        _entry_lw_0_2),
    "JS_1_1": ((), "", "oracle",
        "one-variable fields multiplying to the derivative of the "
        "coefficient product", _entry_js_1_1),
    "JSHO_2_2": ((), "", "oracle",
        "two-variable fields along the first coordinate paired with an "
        "odd copy of the functions", _entry_jsho_2_2),
    "JSKO_1_2": ((), "", "oracle",
        "one-variable fields paired with an odd copy of the functions, "
        "the odd square landing back in the fields", _entry_jsko_1_2),
    "JS_1_8": (("alpha",), "any alpha; 0 and 1 cover the family up to "
               "isomorphism", "oracle",
        "rank-two module of odd derivations on one even and two odd "
        "coordinates, product given by the formal plus-bracket",
        _entry_js_1_8),
    "LW_1_2": ((), "", "oracle",
        "functions with an odd copy; the odd square folds back through "
        "twice-minus-derivative", _entry_lw_1_2),
    "LHO_1_2": ((), "", "oracle",
        "functions modulo constants with an odd copy; the odd square is "
        "twice the product", _entry_lho_1_2),
    "LSHOp_2_2": ((), "", "oracle",
        "two-variable functions modulo constants under a shifted "
        "divergence-free bracket, with an odd copy", _entry_lshop_2_2),
    "LSKOp_2_4": ((), "", "oracle",
        "weight-one divergence kernel in two coordinates under a contact "
        "bracket twisted by a mixed odd factor", _entry_lskop_2_4),
    "LSKOp_1_2": (("beta",), "beta outside {0, 1} and not 2 + 1/b or "
                  "2 + 2/b for a positive integer b", "oracle",
        "one-variable fields scaled by a parameter with an odd copy "
        "squaring to a multiple of x", _entry_lskop_1_2),
    "LHa_1_2": (("alpha",), "any alpha; 0 and 1 cover the family", "oracle",
        "one-variable fields with an odd copy modulo constants; the odd "
        "square multiplies the two derivatives", _entry_lha_1_2),
    "LWa_1_2": (("alpha",), "any alpha; 0 and 1 cover the family", "oracle",
        "one-variable fields acting on functions with a shifted "
        "multiplication back into the fields", _entry_lwa_1_2),
    "LWa_2_2": (("alpha",), "any alpha; 0 and 1 cover the family", "oracle",
        "two coordinate fields with an affine correction on the cross "
        "bracket", _entry_lwa_2_2),
    "LSa_2_2": (("alpha",), "any alpha; 0 and 1 cover the family", "oracle",
        "rank-two module over a plain and a weighted coordinate "
        "derivation with a linear cross correction", _entry_lsa_2_2),
    "LS_1_3": ((), "", "oracle",
        "one-variable fields with two odd copies of the functions pairing "
        "into the fields", _entry_ls_1_3),
    "LHOa_3_1": (("alpha",), "any alpha; 0 and 1 cover the family", "oracle",
        "three-variable functions modulo constants under a quadratically "
        "weighted biderivation bracket", _entry_lhoa_3_1),
    "LSHOa_4_1": (("alpha",), "any alpha; 0 and 1 cover the family", "oracle",
        "four-variable functions modulo constants; the second "
        "biderivation pair is shifted by the first coordinate",
        _entry_lshoa_4_1),
    "LKO_2_1": ((), "", "oracle",
        "two-variable functions under a skew bracket with a translation "
        "part along the first coordinate", _entry_lko_2_1),
    "LSKOa_3_1": (("alpha", "beta"), "rejected only when alpha != 0 and "
                  "beta = 1/3", "oracle",
        "three-variable functions under a skew bracket mixing a "
        "translation part with two weighted biderivation pairs",
        _entry_lskoa_3_1),
}

# base -> (params, constraints, summary, index rule on (n, m), builder).
# make attaches the summary to every instance, so it holds for each one.
_PATTERNS: dict = {
    "OJP": (("n", "m"), "n >= 0, m in {n, n+1}",
            "commutative odd-type series product over an odd Poisson "
            "coefficient algebra with marker and series variable",
            lambda n, m: n >= 0 and m in (n, n + 1),
            lambda n, m: _entry_series(n, m, False)),
    "LP": (("n", "m"), "n >= 0, m in {n, n+1}",
           "parity-reversed twin of the odd-type series product",
           lambda n, m: n >= 0 and m in (n, n + 1),
           lambda n, m: _entry_series(n, m, True)),
    "LSHO": (("n",), "n >= 2, second index 2^(n-1)",
             "kernel of the odd Laplacian with no top odd component, under "
             "a twisted divergence-free bracket",
             lambda n, m: n >= 2 and m == 2 ** (n - 1),
             lambda n, m: _entry_lsho(n)),
    "LSKO": (("n", "beta"), "n >= 1, second index 2^n, beta != 4/(n+1)",
             "kernel of a weighted divergence under a twisted contact "
             "bracket; special weights drop one top odd component",
             lambda n, m: n >= 1 and m == 2 ** n,
             lambda n, m, beta: _entry_lsko(n, beta)),
}

_ALIASES = {"LHa_2_2": "LHa_1_2", "JSa_1_8": "JS_1_8"}


def normalize_name(raw: str) -> str:
    s = raw.strip()
    for old, new in (("′", "p"), ("'", "p"), ("α", "a"),
                     ("β", ""), ("^", ""), ("{", ""), ("}", ""),
                     ("(", "_"), (")", ""), (",", "_"), (" ", "")):
        s = s.replace(old, new)
    while "__" in s:
        s = s.replace("__", "_")
    s = s.strip("_")
    return _ALIASES.get(s, s)


def make(name: str, *, alpha=None, beta=None):
    """Build a catalog entry by name.

    Names are normalized first, so decorated spellings resolve to the same
    entry.  Parametrized entries take exact rationals for alpha and beta;
    a parameter the entry does not take raises CatalogError naming the ones
    it does, a value that is no exact rational (a bool, inf, nan, "x",
    "1/0", see linalg._coeff) raises CatalogError naming the parameter, and
    an out-of-range one raises CatalogError naming the constraint.
    """
    if not isinstance(name, str):
        raise CatalogError(f"entry names are strings, got {name!r}")
    key = normalize_name(name)
    base, *indices = key.split("_")
    if key in _FIXED:
        wanted = _FIXED[key][0]
    elif base in _PATTERNS and len(indices) == 2:
        wanted = _PATTERNS[base][0]
    else:
        raise CatalogError(f"unknown entry {name!r}")
    takes = [p for p in wanted if p in ("alpha", "beta")]
    named = ", ".join(takes) or "no parameters"
    kwargs = {}
    for p, val in (("alpha", alpha), ("beta", beta)):
        if p not in takes:
            if val is not None:
                raise CatalogError(f"{key} takes {named}, not {p}")
        elif p == "beta" and val is None:
            raise CatalogError(f"{key} needs an explicit beta")
        else:
            try:
                kwargs[p] = F(0 if val is None else _coeff(val, p))
            except ValueError as exc:
                raise CatalogError(f"{key}: {p} must be an exact rational, "
                                   f"got {val!r}") from exc
    if key in _FIXED:
        *_, summary, build = _FIXED[key]
        entry = build(**kwargs)
    else:
        _, constraints, summary, fits, build = _PATTERNS[base]
        try:
            n, m = (int(i) for i in indices)
        except ValueError as exc:
            raise CatalogError(f"unknown entry {name!r}") from exc
        if not fits(n, m):
            raise CatalogError(f"{key} is outside its family: {constraints}")
        entry = build(n, m, **kwargs)
    entry.summary = summary
    return entry


def registry_listing() -> list:
    """All catalog entries with parameters and constraints, JSON-friendly;
    nothing is built."""
    rows = []
    for name, (params, constraints, kind, summary, _) in _FIXED.items():
        rows.append({"name": name, "kind": kind, "params": list(params),
                     "constraints": constraints, "summary": summary})
    for base, (params, constraints, summary, _, _) in _PATTERNS.items():
        rows.append({"name": f"{base}_<n>_<s>", "kind": "oracle",
                     "params": list(params), "constraints": constraints,
                     "summary": summary})
    return rows
