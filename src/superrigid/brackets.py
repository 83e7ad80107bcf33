"""Bracket structures on jets: the odd bracket on paired generators, its
extension with a contact-type correction in tau, the even generalized
Poisson bracket, bivector-driven quasi-Poisson brackets, a 3x3 determinant
bracket, gauge twists, and the associated Jordan-type product on pairs.

Parity conventions: signs use the parity of the function argument itself;
operations that need a homogeneous argument raise ParityError on mixed input.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .jets import Ambient, Jet, geometric_inverse

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


def _homogeneous(f: Jet):
    """Split into parity-homogeneous pieces, yielding (part, parity)."""
    for p in (0, 1):
        t = {m: c for m, c in f.terms.items() if len(m[1]) & 1 == p}
        if t:
            yield Jet(f.ambient, t, f.order), p


def _check_paired(amb: Ambient):
    odd = amb.n_odd - (1 if amb.tau else 0)
    if amb.n_even != odd:
        raise ValueError(f"ambient {amb!r} has no x_i/xi_i pairing")


def _odd_pair_sum(f: Jet, g: Jet, pf: int, n_pairs: int) -> Jet:
    out = Jet.zero(f.ambient)
    sign = -1 if pf else 1
    for i in range(1, n_pairs + 1):
        out = out + f.d_even(i) * g.d_odd(i)
        out = out + (f.d_odd(i) * g.d_even(i)).scale(sign)
    return out


def buttin(f: Jet, g: Jet) -> Jet:
    """Odd bracket pairing x_i with xi_i:
    sum_i (df/dx_i dg/dxi_i + (-1)^p(f) df/dxi_i dg/dx_i)."""
    _check_paired(f.ambient)
    if f.ambient.tau:
        raise ValueError("ambient with tau: use k_bracket")
    return _odd_pair_sum(f, g, _parity(f, "first argument"), f.ambient.n_even)


def k_bracket(f: Jet, g: Jet) -> Jet:
    """Odd bracket on an ambient with tau: the paired bracket plus
    (E-2)(f) dg/dtau + (-1)^p(f) df/dtau (E-2)(g), with E counting all
    generators except tau.  Extends bilinearly over a mixed-parity f."""
    amb = f.ambient
    if not amb.tau:
        raise ValueError("k_bracket needs a designated tau generator")
    _check_paired(amb)
    out = Jet.zero(amb)
    eg = g.euler() - g.scale(2)
    for part, pf in _homogeneous(f):
        out = out + _odd_pair_sum(part, g, pf, amb.n_even)
        ef = part.euler() - part.scale(2)
        out = out + ef * g.d_tau()
        out = out + (part.d_tau() * eg).scale(-1 if pf else 1)
    return out


def gen_poisson_even(f: Jet, g: Jet) -> Jet:
    """Even generalized Poisson bracket: (p_i, q_i) pairs on consecutive
    even generators, a diagonal odd-odd term with sign (-1)^p(f), and, when
    the even count is odd, corrections in the final generator t weighted by
    (2 - E) with E skipping t."""
    amb = f.ambient
    if amb.tau:
        raise ValueError("even bracket does not use a tau generator")
    k = amb.n_even // 2
    out = Jet.zero(amb)
    for part, pf in _homogeneous(f):
        for i in range(1, k + 1):
            p, q = 2 * i - 1, 2 * i
            out = (out + part.d_even(p) * g.d_even(q)
                   - part.d_even(q) * g.d_even(p))
        sign = -1 if pf else 1
        for j in range(1, amb.n_odd + 1):
            out = out + (part.d_odd(j) * g.d_odd(j)).scale(sign)
        if amb.n_even % 2:
            t = amb.n_even
            ev = list(range(1, amb.n_even))
            wf = part.scale(2) - part.euler(even_idx=ev)
            wg = g.scale(2) - g.euler(even_idx=ev)
            out = out + wf * g.d_even(t) - part.d_even(t) * wg
    return out


def bracket_unit_derivation(bracket: Callable[[Jet, Jet], Jet],
                            amb: Ambient) -> Callable[[Jet], Jet]:
    """The operator a -> {e, a} attached to a bracket (e the unit)."""
    one = Jet.one(amb)

    def D(a: Jet) -> Jet:
        return bracket(one, a)

    return D


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

    The admissibility condition {phi, phi} == 0 is re-checked at every
    evaluation order; the check treats phi as even, so an inhomogeneous
    phi is rejected with the nonzero bracket as witness.
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
        self._check_square(order)

    def _square(self, order: int) -> Jet:
        # evaluate the base bracket on (phi, phi) with parity forced even:
        # split phi into parity parts and use sign +1 throughout
        parts = [part for part, _ in _homogeneous(self.phi)]
        out = Jet.zero(self.phi.ambient)
        for a in parts:
            for b in parts:
                out = out + _square_term(a, b)
        return out.truncate(order)

    def _check_square(self, order: int):
        w = self._square(order)
        if not w.is_zero():
            raise GaugeError("gauge element does not square to zero", w)

    def __call__(self, f: Jet, g: Jet) -> Jet:
        from .jets import _min_order

        order = _min_order(_min_order(f.order, g.order), self.order)
        self._check_square(order)
        inv = geometric_inverse(self.phi, order)
        return (inv * self.base(self.phi * f, self.phi * g)).truncate(order)

    def D(self, a: Jet) -> Jet:
        """Unit derivation of the twisted bracket:
        -D(phi) a + {phi, a} in terms of the base data."""
        out = self.base(self.phi, a)
        if self.base_D is not None:
            out = out - self.base_D(self.phi) * a
        return out


def _square_term(a: Jet, b: Jet) -> Jet:
    # built-in odd bracket of the ambient, first argument treated as even
    amb = a.ambient
    if amb.tau:
        out = _odd_pair_sum(a, b, 0, amb.n_even)
        ea = a.euler() - a.scale(2)
        eb = b.euler() - b.scale(2)
        return out + ea * b.d_tau() + a.d_tau() * eb
    return _odd_pair_sum(a, b, 0, amb.n_even)


def gauge_transform(base: Callable[[Jet, Jet], Jet], phi: Jet,
                    order: int = 4,
                    base_D: Callable[[Jet], Jet] | None = None) -> GaugedBracket:
    """Validated gauge twist of an odd bracket; raises GaugeError with the
    witness when phi fails the squaring condition."""
    return GaugedBracket(base, phi, order, base_D)


def fd_bracket(
    f1: Jet,
    i1: int,
    f2: Jet,
    i2: int,
    derivations: Sequence[Callable[[Jet], Jet]],
    *,
    plus: bool,
    odd_type: bool,
) -> dict[int, Jet]:
    """Bracket of coefficient-times-derivation terms f1 D_{i1} and f2 D_{i2}:
    f1 D_{i1}(f2) D_{i2} +/- (-1)^eps f2 D_{i2}(f1) D_{i1}, with eps the
    product of the coefficient parities, shifted by one each when the
    derivations are odd.  Returns slot -> coefficient."""
    p1 = _parity(f1, "first coefficient")
    p2 = _parity(f2, "second coefficient")
    if odd_type:
        eps = (p1 ^ 1) & (p2 ^ 1)
    else:
        eps = p1 & p2
    sign = (1 if plus else -1) * (-1 if eps else 1)
    out: dict[int, Jet] = {}
    first = f1 * derivations[i1](f2)
    out[i2] = first
    second = (f2 * derivations[i2](f1)).scale(sign)
    if i1 in out:
        out[i1] = out[i1] + second
    else:
        out[i1] = second
    return {i: c for i, c in out.items() if not c.is_zero()}


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
    for u, pu in _homogeneous(a0):
        barred = barred + (u * b1).scale(-1 if pu else 1)
    for u, pu in _homogeneous(a1):
        duv = bracket(u, b1) - (u * D(b1) - D(u) * b1).scale(F(1, 2))
        plain = plain + duv.scale(-1 if pu else 1)
    return plain, barred


# -- property defects (zero iff the law holds) ----------------------------


def odd_skew_defect(br, f: Jet, g: Jet) -> Jet:
    pf, pg = _parity(f, "f"), _parity(g, "g")
    sign = -1 if (pf ^ 1) & (pg ^ 1) else 1
    return br(f, g) + br(g, f).scale(sign)


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


def even_skew_defect(br, f: Jet, g: Jet) -> Jet:
    pf, pg = _parity(f, "f"), _parity(g, "g")
    sign = -1 if pf & pg else 1
    return br(f, g) + br(g, f).scale(sign)

