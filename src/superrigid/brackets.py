"""Bracket structures on jets, and the one evaluator of bilinear products.

Every bracket here, and every product of the catalog's oracle entries, is a
sum of terms F * op(g): F is a jet made from the left factor f alone (its
f-side factor) and op is one of a few operators on the right factor g, g
itself, its parity involution P (odd monomials negated), a partial
derivative, or the contact operator E-2.  ``bind_terms`` evaluates such a
term list for any g: it takes each operand of g once and adds every product
into one term dict (jets._mul_into).  The f-side factor always comes first,
so every sign depends on the parity of f alone and g is never split by
parity.

A Pairing lists the generator pairs of a bracket:
  even-even (p, q):  d_p f d_q g - d_q f d_p g;
  even-odd (i, j):   d_{x_i} f d_{xi_j} g + (-1)^p(f) d_{xi_j} f d_{x_i} g;
  odd-odd (j, k):    (-1)^p(f) d_{xi_j} f d_{xi_k} g;
and an optional contact generator, with E the Euler operator on the indices
it names, each as often as it is listed: odd tau adds (E-2)(f) dg/dtau +
(-1)^p(f) df/dtau (E-2)(g), even t adds -(E-2)(f) dg/dt + df/dt (E-2)(g).
``pairing_terms(spec, f)`` compiles {f, -} into terms, ``bound_bracket`` is
their map g -> {f, g} and ``paired_bracket`` that map applied once.  The
brackets of H, K, HO, SHO, KO and SKO are each a Pairing and that call, and
so is the catalog's series product (OjpSpace), an odd contact bracket of KO
type.  The superbracket of vector fields (fields.lie_bracket) is one term
list per slot of its right factor.

Parity conventions: signs use the parity of the function argument itself;
operations that need a homogeneous argument raise ParityError on mixed input.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from .jets import Ambient, Jet, _mul_into, _odd, _same_ambient


class ParityError(ValueError):
    """An argument that must be parity-homogeneous is not."""


def _parity(f: Jet, what: str) -> int:
    p = f.parity()
    if p is None and not f.is_zero():
        raise ParityError(f"{what} must be parity-homogeneous")
    return p or 0


class Pairing(NamedTuple):
    """Generator pairs of a bracket, as in the module docstring; contact is
    ("xi", k) or ("x", k), and euler the (even, odd) indices E counts, an
    index listed twice weighing 2."""

    even: tuple = ()
    mixed: tuple = ()
    odd: tuple = ()
    contact: tuple | None = None
    euler: tuple = ((), ())


def bind_terms(terms: dict) -> Callable[[Jet, dict], None]:
    """The one evaluator of bilinear products.

    ``terms`` maps an output slot to (f-side jet, g operand) pairs.  The
    returned add(g, out) adds f-side * operand(g) for every pair into the
    term dict out[slot], the f-side factor first; each distinct operand of g
    is computed once per call.  An operand is None (g itself), "P" (the
    parity involution, which negates the odd monomials of g), ("x", i) or
    ("xi", j) (a partial derivative) or ("E", euler), the contact operator
    E-2 with E counting the (even, odd) indices of euler.
    """
    plan = [(s, [(f.terms, op) for f, op in pairs if f.terms])
            for s, pairs in terms.items()]
    ops = {op for _, pairs in plan for _, op in pairs}

    def add(g: Jet, out: dict) -> None:
        dg = {op: _operand(g, op).terms for op in ops}
        for s, pairs in plan:
            acc = out.setdefault(s, {})
            for ft, op in pairs:
                if dg[op]:
                    _mul_into(acc, ft, dg[op])

    return add


def term_map(f: Jet, terms: list) -> Callable[[Jet], Jet]:
    """The map g -> sum of f-side * operand(g) over the (f-side jet, g
    operand) terms of a left factor f, on f's ambient."""
    add, amb = bind_terms({0: terms}), f.ambient

    def apply(g: Jet) -> Jet:
        if g.ambient is not amb:
            _same_ambient(f, g)
        out: dict = {}
        add(g, out)
        return Jet._clean(amb, out[0])

    return apply


def pairing_terms(spec: Pairing, f: Jet, sign: int = 1) -> list:
    """The terms of g -> sign * {f, g}: each nonzero operand of each parity
    part of f, signed, with the g operand it multiplies."""
    terms = []
    for part, p in f.parity_parts():
        for fk, gk, s in _plan(spec):
            t = _operand(part, fk)
            if t.terms:
                neg = (p if s is None else s < 0) ^ (sign < 0)
                terms.append((-t if neg else t, gk))
    return terms


def bound_bracket(spec: Pairing, f: Jet) -> Callable[[Jet], Jet]:
    """The map g -> {f, g} of a Pairing, summed over the parity parts of f:
    f's operands are taken once, each g's once per call."""
    return term_map(f, pairing_terms(spec, f))


def paired_bracket(spec: Pairing, f: Jet, g: Jet) -> Jet:
    """The bracket {f, g} of a Pairing: ``bound_bracket`` applied once."""
    return bound_bracket(spec, f)(g)


@lru_cache
def _plan(spec: Pairing) -> tuple:
    """The terms of a Pairing as (f operand, g operand, sign), sign None
    standing for (-1)^p(f)."""
    plan = []
    for p, q in spec.even:
        plan += [(("x", p), ("x", q), 1), (("x", q), ("x", p), -1)]
    for i, j in spec.mixed:
        plan += [(("x", i), ("xi", j), 1), (("xi", j), ("x", i), None)]
    plan += [(("xi", j), ("xi", k), None) for j, k in spec.odd]
    t = spec.contact
    if t is not None:
        odd, e = t[0] == "xi", ("E", spec.euler)
        plan += [(e, t, 1 if odd else -1), (t, e, None if odd else 1)]
    return tuple(plan)


def _operand(h: Jet, key) -> Jet:
    if key is None:
        return h
    if key == "P":
        return Jet._clean(h.ambient, {m: -c if _odd(m) else c
                                      for m, c in h.terms.items()})
    kind, i = key
    if kind == "x":
        return h.d_even(i)
    return h.d_odd(i) if kind == "xi" else h.euler(*i) - h.scale(2)


@lru_cache
def _odd_pairing(amb: Ambient) -> Pairing:
    """x_i paired with xi_i, and tau as contact generator when designated."""
    idx = tuple(range(1, amb.n_even + 1))
    return Pairing(mixed=tuple(zip(idx, idx)),
                   contact=("xi", amb.n_odd) if amb.tau else None,
                   euler=(idx, tuple(range(1, amb.n_odd))))


@lru_cache
def _even_pairing(amb: Ambient, antidiagonal: bool) -> Pairing:
    """Consecutive even pairs, and the odd generators paired j <-> j, with a
    leftover last even generator as contact generator, or j <-> n+1-j."""
    m, n = amb.n_even, amb.n_odd
    return Pairing(even=tuple((p, p + 1) for p in range(1, m, 2)),
                   odd=tuple((j, n + 1 - j if antidiagonal else j)
                             for j in range(1, n + 1)),
                   contact=("x", m) if m % 2 and not antidiagonal else None,
                   euler=(tuple(range(1, m)), tuple(range(1, n + 1))))


def _check_paired(amb: Ambient):
    if amb.n_even != amb.n_odd - amb.tau:
        raise ValueError(f"ambient {amb!r} has no x_i/xi_i pairing")


def buttin(f: Jet, g: Jet) -> Jet:
    """Odd bracket pairing x_i with xi_i:
    sum_i (df/dx_i dg/dxi_i + (-1)^p(f) df/dxi_i dg/dx_i)."""
    _check_paired(f.ambient)
    if f.ambient.tau:
        raise ValueError("ambient with tau: use k_bracket")
    _parity(f, "first argument")  # raises ParityError on a mixed f
    return paired_bracket(_odd_pairing(f.ambient), f, g)


def k_bracket(f: Jet, g: Jet) -> Jet:
    """Odd bracket on an ambient with tau: the paired bracket plus the tau
    terms, with E counting all generators except tau.  Extends bilinearly
    over a mixed-parity f."""
    amb = f.ambient
    if not amb.tau:
        raise ValueError("k_bracket needs a designated tau generator")
    _check_paired(amb)
    return paired_bracket(_odd_pairing(amb), f, g)


def gen_poisson_even(f: Jet, g: Jet) -> Jet:
    """Even generalized Poisson bracket: consecutive even pairs, diagonal
    odd pairs, and a last even generator t as contact generator when the
    even count is odd (E skips t)."""
    amb = f.ambient
    if amb.tau:
        raise ValueError("even bracket does not use a tau generator")
    return paired_bracket(_even_pairing(amb, False), f, g)


def poisson_antidiagonal(f: Jet, g: Jet) -> Jet:
    """Even Poisson bracket with consecutive even pairs and the odd
    generators paired j <-> n+1-j."""
    return paired_bracket(_even_pairing(f.ambient, True), f, g)
