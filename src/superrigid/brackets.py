"""Bracket structures on jets: one engine for the Poisson, Buttin and
contact brackets, bivector-driven quasi-Poisson brackets, and the bracket of
coefficient-times-derivation terms that the catalog's field rules use.

A Pairing lists the generator pairs of a bracket:
  even-even (p, q):  d_p f d_q g - d_q f d_p g;
  even-odd (i, j):   d_{x_i} f d_{xi_j} g + (-1)^p(f) d_{xi_j} f d_{x_i} g;
  odd-odd (j, k):    (-1)^p(f) d_{xi_j} f d_{xi_k} g;
and an optional contact generator, with E the Euler operator on the indices
it names, each as often as it is listed: odd tau adds (E-2)(f) dg/dtau +
(-1)^p(f) df/dtau (E-2)(g), even t adds -(E-2)(f) dg/dt + df/dt (E-2)(g).
bound_bracket(spec, f) is the one engine: it returns g -> {f, g}, with f's
nonzero operands computed once when it binds and, per g, only the operands
of g that those multiply, so a caller with a fixed f and many g's pays for
f's share once.  The products for one g accumulate in place in one term
dict (jets._mul_into).  paired_bracket is that map applied to one g; the
brackets of H, K, HO, SHO, KO and SKO are each a Pairing and that call, and
so is the catalog's series product (OjpSpace), an odd contact bracket of KO
type.

Parity conventions: signs use the parity of the function argument itself;
operations that need a homogeneous argument raise ParityError on mixed input.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .jets import Ambient, Jet, _mul_into, _same_ambient


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


def bound_bracket(spec: Pairing, f: Jet) -> Callable[[Jet], Jet]:
    """The map g -> {f, g} of a Pairing, summed over the parity parts of f.

    f's nonzero operands are computed once, at bind time, each with the g
    operand it multiplies and its sign; each g then computes only the
    operands those terms use, once per call, and adds every product into
    one term dict.
    """
    amb = f.ambient
    terms = []  # (terms of an operand of a part of f, g operand key, negate)
    for part, p in f.parity_parts():
        for fk, gk, sign in _plan(spec):
            term = _operand(part, fk, spec.euler).terms
            if term:
                terms.append((term, gk, p if sign is None else sign < 0))
    keys = {gk for _, gk, _ in terms}

    def bracket(g: Jet) -> Jet:
        if g.ambient is not amb:
            _same_ambient(f, g)
        dg = {gk: _operand(g, gk, spec.euler).terms for gk in keys}
        out: dict = {}
        for term, gk, neg in terms:
            if dg[gk]:
                _mul_into(out, term, dg[gk], neg)
        return Jet._clean(amb, out)

    return bracket


def paired_bracket(spec: Pairing, f: Jet, g: Jet) -> Jet:
    """The bracket {f, g} of a Pairing: ``bound_bracket`` applied once."""
    return bound_bracket(spec, f)(g)


@lru_cache
def _plan(spec: Pairing) -> tuple:
    """The terms of a Pairing as (f operand, g operand, sign), sign None
    standing for (-1)^p(f); an operand is ("x", i), ("xi", j) or "E", the
    contact operator (E-2)."""
    plan = []
    for p, q in spec.even:
        plan += [(("x", p), ("x", q), 1), (("x", q), ("x", p), -1)]
    for i, j in spec.mixed:
        plan += [(("x", i), ("xi", j), 1), (("xi", j), ("x", i), None)]
    plan += [(("xi", j), ("xi", k), None) for j, k in spec.odd]
    t = spec.contact
    if t is not None:
        odd = t[0] == "xi"
        plan += [("E", t, 1 if odd else -1), (t, "E", None if odd else 1)]
    return tuple(plan)


def _operand(h: Jet, key, euler: tuple) -> Jet:
    if key == "E":
        return h.euler(*euler) - h.scale(2)
    return h.d_even(key[1]) if key[0] == "x" else h.d_odd(key[1])


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


def quasi_poisson(
    Z,
    pairs: Sequence[tuple],
    f: Jet,
    g: Jet,
) -> Jet:
    """Bracket of a generalized bivector given by a vector field Z and
    wedge pairs (X_i, Y_i): Z(f)g - fZ(g) + sum X_i(f)Y_i(g) - Y_i(f)X_i(g).
    Fields are any callables from jets to jets; Z may be None."""
    out = Jet.zero(f.ambient)
    if Z is not None:
        out = out + Z(f) * g - f * Z(g)
    for X, Y in pairs:
        out = out + X(f) * Y(g) - Y(f) * X(g)
    return out


def fd_bracket(
    f1: Jet,
    p1: int,
    i1: int,
    i2: int,
    derivations: Sequence[Callable[[Jet], Jet]],
    *,
    plus: bool,
    odd_type: bool,
) -> Callable[[Jet, int], dict[int, Jet]]:
    """The map (f2, p2) -> bracket of the coefficient-times-derivation terms
    f1 D_{i1} and f2 D_{i2}:
    f1 D_{i1}(f2) D_{i2} +/- (-1)^eps f2 D_{i2}(f1) D_{i1}, with eps the
    product of the coefficient parities p1 and p2, shifted by one each when
    the derivations are odd.  D_{i2}(f1) is taken once.  Each map returns
    slot -> coefficient."""
    d2f1 = derivations[i2](f1)
    d1 = derivations[i1]

    def bracket(f2: Jet, p2: int) -> dict[int, Jet]:
        eps = (p1 ^ odd_type) & (p2 ^ odd_type)
        sign = (1 if plus else -1) * (-1 if eps else 1)
        out = {i2: f1 * d1(f2)}
        second = (f2 * d2f1).scale(sign)
        out[i1] = out[i1] + second if i1 in out else second
        return {i: c for i, c in out.items() if not c.is_zero()}

    return bracket
