"""Bracket structures on jets: one engine for the Poisson, Buttin and
contact brackets, bivector-driven quasi-Poisson brackets, a 3x3 determinant
bracket, gauge twists, and the associated Jordan-type product on pairs.

A Pairing lists the generator pairs of a bracket:
  even-even (p, q):  d_p f d_q g - d_q f d_p g;
  even-odd (i, j):   d_{x_i} f d_{xi_j} g + (-1)^p(f) d_{xi_j} f d_{x_i} g;
  odd-odd (j, k):    (-1)^p(f) d_{xi_j} f d_{xi_k} g;
and an optional contact generator, with E the Euler operator on the indices
it names: odd tau adds (E-2)(f) dg/dtau + (-1)^p(f) df/dtau (E-2)(g), even t
adds -(E-2)(f) dg/dt + df/dt (E-2)(g).  bound_bracket(spec, f) is the one
engine: it returns g -> {f, g}, splitting f by parity once and keeping each
operand of f it has computed, so a caller with a fixed f and many g's pays
for f's share once.  paired_bracket is that map applied to one g; the
brackets of H, K, HO, SHO, KO and SKO are each a Pairing and that call.

Parity conventions: signs use the parity of the function argument itself;
operations that need a homogeneous argument raise ParityError on mixed input.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

from .jets import Ambient, Jet, _min_order, geometric_inverse

F = Fraction


class ParityError(ValueError):
    """An argument that must be parity-homogeneous is not."""


class GaugeError(ValueError):
    """A gauge element failed its admissibility check; carries the witness."""

    def __init__(self, message: str, witness: Jet | None = None):
        super().__init__(message)
        self.witness = witness


def _parity(f: Jet, what: str) -> int:
    p = f.parity()
    if p is None and not f.is_zero():
        raise ParityError(f"{what} must be parity-homogeneous")
    return p or 0


class Pairing(NamedTuple):
    """Generator pairs of a bracket, as in the module docstring; contact is
    ("xi", k) or ("x", k), and euler the (even, odd) indices E counts."""

    even: tuple = ()
    mixed: tuple = ()
    odd: tuple = ()
    contact: tuple | None = None
    euler: tuple = ((), ())


def bound_bracket(spec: Pairing, f: Jet,
                  _forced_parity: int | None = None) -> Callable[[Jet], Jet]:
    """The map g -> {f, g} of a Pairing, summed over the parity parts of f,
    or with all of f taken at ``_forced_parity`` when that is given.

    f's parity parts are taken once.  Each operand of f is computed on the
    first g whose matching operand is nonzero and kept for later g's; each
    g's operands are taken once per call.  A result's validity order is the
    least order over every term the pairing defines, vanishing ones
    included, so skipping a vanishing term cannot change it.
    """
    plan, lowers = _plan(spec)
    parts = (f.parity_parts() if _forced_parity is None
             else [(f, _forced_parity)])
    if not plan or not parts:
        return lambda g: Jet.zero(f.ambient)
    memos = [{} for _ in parts]  # f operand key -> operand, per part

    def bracket(g: Jet) -> Jet:
        order = _min_order(f.order, g.order)
        if order is not None and lowers:
            order -= 1
        dg = {gk: _operand(g, gk, spec.euler) for _, gk, _ in plan}
        out = Jet.zero(f.ambient)
        for (part, p), memo in zip(parts, memos):
            for fk, gk, sign in plan:
                if dg[gk].terms:
                    term = memo.get(fk)
                    if term is None:
                        term = memo[fk] = _operand(part, fk, spec.euler)
                    if term.terms:
                        term = term * dg[gk]
                        neg = p if sign is None else sign < 0
                        out = out - term if neg else out + term
        return Jet(f.ambient, out.terms, order)

    return bracket


def paired_bracket(spec: Pairing, f: Jet, g: Jet,
                   _forced_parity: int | None = None) -> Jet:
    """The bracket {f, g} of a Pairing: ``bound_bracket`` applied once."""
    return bound_bracket(spec, f, _forced_parity)(g)


@lru_cache
def _plan(spec: Pairing) -> tuple[tuple, bool]:
    """The terms of a Pairing as (f operand, g operand, sign), sign None
    standing for (-1)^p(f), and whether the bracket lowers the order."""
    plan = []
    for p, q in spec.even:
        plan += [(("x", p), ("x", q), 1), (("x", q), ("x", p), -1)]
    for i, j in spec.mixed:
        plan += [(("x", i), ("xi", j), 1), (("xi", j), ("x", i), None)]
    plan += [(("xi", j), ("xi", k), None) for j, k in spec.odd]
    t = spec.contact
    odd = t is not None and t[0] == "xi"
    if t is not None:
        plan += [("E", t, 1 if odd else -1), (t, "E", None if odd else 1)]
    return tuple(plan), bool(spec.even or spec.mixed or t and not odd)


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
    return paired_bracket(_odd_pairing(f.ambient), f, g,
                          _parity(f, "first argument"))


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


def bracket_unit_derivation(bracket: Callable[[Jet, Jet], Jet],
                            amb: Ambient) -> Callable[[Jet], Jet]:
    """The operator a -> {e, a} attached to a bracket (e the unit)."""
    one = Jet.one(amb)
    return lambda a: bracket(one, a)


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


def jacobi_mayer(f: Jet, g: Jet) -> Jet:
    """Determinant bracket on three even generators x, y, z with fixed last
    row (0, -x, 1): x(f_x g_z - f_z g_x) + (f_x g_y - f_y g_x)."""
    amb = f.ambient
    if amb.n_even != 3 or amb.n_odd != 0:
        raise ValueError("determinant bracket lives on three even generators")
    x = Jet.x(amb, 1)
    fx, fy, fz = (f.d_even(i) for i in (1, 2, 3))
    gx, gy, gz = (g.d_even(i) for i in (1, 2, 3))
    return x * (fx * gz - fz * gx) + fx * gy - fy * gx


class GaugedBracket:
    """Twist of an odd bracket by an invertible even element phi:
    evaluate as phi^{-1} {phi a, phi b}.

    {phi, phi} == 0 is checked, treating phi as even, and phi^{-1} built
    once at the bracket's order; an evaluation, at no higher order, truncates
    the inverse.  A failed check raises GaugeError with {phi, phi} as witness.
    """

    def __init__(self, base: Callable[[Jet, Jet], Jet], phi: Jet,
                 order: int = 4,
                 base_D: Callable[[Jet], Jet] | None = None):
        self.base = base
        self.phi = phi
        self.order = order
        self.base_D = base_D
        unit = ((0,) * phi.ambient.n_even, ())
        if not phi.terms.get(unit):
            raise GaugeError("gauge element has no invertible constant term")
        # {phi, phi} in the ambient's own odd bracket, phi taken as even
        w = paired_bracket(_odd_pairing(phi.ambient), phi, phi, 0)
        w = w.truncate(order)
        if not w.is_zero():
            raise GaugeError("gauge element does not square to zero", w)
        self._inverse = geometric_inverse(phi, order)

    def __call__(self, f: Jet, g: Jet) -> Jet:
        order = _min_order(_min_order(f.order, g.order), self.order)
        inv = self._inverse.truncate(order)
        return (inv * self.base(self.phi * f, self.phi * g)).truncate(order)

    def D(self, a: Jet) -> Jet:
        """Unit derivation of the twisted bracket:
        -D(phi) a + {phi, a} in terms of the base data."""
        out = self.base(self.phi, a)
        if self.base_D is not None:
            out = out - self.base_D(self.phi) * a
        return out


def gauge_transform(base: Callable[[Jet, Jet], Jet], phi: Jet,
                    order: int = 4,
                    base_D: Callable[[Jet], Jet] | None = None) -> GaugedBracket:
    """Validated gauge twist of an odd bracket; raises GaugeError with the
    witness when phi fails the squaring condition."""
    return GaugedBracket(base, phi, order, base_D)


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


# -- pairs with a parity-reversed copy ------------------------------------


def jp_product(
    bracket: Callable[[Jet, Jet], Jet],
    D: Callable[[Jet], Jet],
    a: tuple[Jet, Jet],
    b: tuple[Jet, Jet],
) -> tuple[Jet, Jet]:
    """Jordan-type product on pairs (plain, barred) over an even generalized
    Poisson algebra: plain parts multiply, bars multiply by the rule
    plain o bar -> (-1)^p(plain) bar of the product, and two bars drop to the
    plain part via {u, v} - (u D(v) - D(u) v)/2."""
    a0, a1 = a
    b0, b1 = b
    plain = a0 * b0
    barred = a1 * b0
    for u, pu in a0.parity_parts():
        barred = barred + (u * b1).scale(-1 if pu else 1)
    for u, pu in a1.parity_parts():
        duv = bracket(u, b1) - (u * D(b1) - D(u) * b1).scale(F(1, 2))
        plain = plain + duv.scale(-1 if pu else 1)
    return plain, barred


# -- property defects (zero iff the law holds) ----------------------------


def _skew_defect(br, f: Jet, g: Jet, shift: int) -> Jet:
    # skew-symmetry in the parities shifted by one for an odd bracket
    pf, pg = _parity(f, "f") ^ shift, _parity(g, "g") ^ shift
    return br(f, g) + br(g, f).scale(-1 if pf & pg else 1)


odd_skew_defect = partial(_skew_defect, shift=1)
even_skew_defect = partial(_skew_defect, shift=0)


def odd_jacobi_defect(br, a: Jet, b: Jet, c: Jet) -> Jet:
    pa, pb = _parity(a, "a"), _parity(b, "b")
    sign = -1 if (pa ^ 1) & (pb ^ 1) else 1
    return br(a, br(b, c)) - br(br(a, b), c) - br(b, br(a, c)).scale(sign)


def odd_leibniz_defect(br, D, a: Jet, b: Jet, c: Jet) -> Jet:
    pa, pb = _parity(a, "a"), _parity(b, "b")
    s1 = -1 if (pa ^ 1) & pb else 1
    s2 = -1 if pa == 0 else 1
    rhs = br(a, b) * c + (b * br(a, c)).scale(s1) + (D(a) * b * c).scale(s2)
    return br(a, b * c) - rhs
