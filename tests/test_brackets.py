import random
from fractions import Fraction as F
from functools import partial
from typing import Callable, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_jet
from superrigid.brackets import (
    ParityError,
    _even_pairing,
    _odd_pairing,
    _operand,
    bound_bracket,
    buttin,
    gen_poisson_even,
    k_bracket,
    paired_bracket,
)
from superrigid.catalog import (OjpSpace, OracleEntry, _bivector_rules,
                                _fd_rules, _sgn)
from superrigid.fields import VectorField, poisson_antidiagonal
from superrigid.jets import Ambient, Jet, parse_jet

O11 = Ambient(1, 1)
O22 = Ambient(2, 2)
O12 = Ambient(1, 2, tau=True)
O23 = Ambient(2, 3, tau=True)
E30 = Ambient(3, 0)


def j(text, amb=O22):
    return parse_jet(text, amb)


# -- law defects (zero iff the law holds) -------------------------------------


def _parity(f: Jet, what: str) -> int:
    p = f.parity()
    if p is None and not f.is_zero():
        raise ParityError(f"{what} must be parity-homogeneous")
    return p or 0


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


def jacobi_mayer(f: Jet, g: Jet) -> Jet:
    """Determinant bracket on three even generators x, y, z with fixed last
    row (0, -x, 1): x(f_x g_z - f_z g_x) + (f_x g_y - f_y g_x), the
    reference for the bivector row with two wedge pairs."""
    amb = f.ambient
    if amb.n_even != 3 or amb.n_odd != 0:
        raise ValueError("determinant bracket lives on three even generators")
    x = Jet.x(amb, 1)
    fx, fy, fz = (f.d_even(i) for i in (1, 2, 3))
    gx, gy, gz = (g.d_even(i) for i in (1, 2, 3))
    return x * (fx * gz - fz * gx) + fx * gy - fy * gx


class TestButtin:
    def test_pairing(self):
        assert buttin(j("x1"), j("xi1")) == j("1")
        assert buttin(j("xi1"), j("x1")) == j("-1")

    def test_square_example(self):
        assert buttin(j("x1^2"), j("xi1*xi2")) == j("2*x1*xi2")

    def test_rejects_unpaired(self):
        amb = Ambient(2, 1)
        with pytest.raises(ValueError):
            buttin(Jet.x(amb, 1), Jet.xi(amb, 1))

    def test_rejects_mixed_parity(self):
        with pytest.raises(ParityError):
            buttin(j("1 + xi1"), j("x1"))

    @given(st.integers(0, 2**30), st.integers(0, 1), st.integers(0, 1))
    @settings(max_examples=150)
    def test_odd_skew(self, seed, pf, pg):
        rng = random.Random(seed)
        f = random_jet(O22, rng, parity=pf)
        g = random_jet(O22, rng, parity=pg)
        assert odd_skew_defect(buttin, f, g).is_zero()

    @given(st.integers(0, 2**30), st.integers(0, 1), st.integers(0, 1),
           st.integers(0, 1))
    @settings(max_examples=100)
    def test_odd_jacobi(self, seed, pa, pb, pc):
        rng = random.Random(seed)
        a = random_jet(O22, rng, parity=pa)
        b = random_jet(O22, rng, parity=pb)
        c = random_jet(O22, rng, parity=pc)
        assert odd_jacobi_defect(buttin, a, b, c).is_zero()

    @given(st.integers(0, 2**30), st.integers(0, 1), st.integers(0, 1))
    @settings(max_examples=100)
    def test_odd_leibniz_no_unit_term(self, seed, pa, pb):
        rng = random.Random(seed)
        a = random_jet(O22, rng, parity=pa)
        b = random_jet(O22, rng, parity=pb)
        c = random_jet(O22, rng)
        D = lambda v: Jet.zero(O22)
        assert odd_leibniz_defect(buttin, D, a, b, c).is_zero()


class TestKBracket:
    def test_unit_tau(self):
        assert k_bracket(j("1", O12), j("tau", O12)) == j("-2", O12)

    def test_weighted_term(self):
        assert k_bracket(j("x1", O12), j("tau", O12)) == j("-x1", O12)

    def test_tau_tau_cancels(self):
        assert k_bracket(j("tau", O12), j("tau", O12)).is_zero()

    def test_unit_derivation_is_minus_two_dtau(self):
        one = Jet.one(O12)
        D = lambda a: k_bracket(one, a)
        rng = random.Random(5)
        f = random_jet(O12, rng, n_terms=6)
        assert D(f) == f.d_tau().scale(-2)

    def test_rejects_without_tau(self):
        with pytest.raises(ValueError):
            k_bracket(j("x1"), j("x2"))

    @given(st.integers(0, 2**30), st.integers(0, 1), st.integers(0, 1))
    @settings(max_examples=100)
    def test_odd_leibniz_with_unit_term(self, seed, pa, pb):
        rng = random.Random(seed)
        a = random_jet(O12, rng, parity=pa)
        b = random_jet(O12, rng, parity=pb)
        c = random_jet(O12, rng)
        D = lambda v: v.d_tau().scale(-2)
        assert odd_leibniz_defect(k_bracket, D, a, b, c).is_zero()

    @given(st.integers(0, 2**30), st.integers(0, 1), st.integers(0, 1))
    @settings(max_examples=100)
    def test_odd_skew(self, seed, pf, pg):
        rng = random.Random(seed)
        f = random_jet(O12, rng, parity=pf)
        g = random_jet(O12, rng, parity=pg)
        assert odd_skew_defect(k_bracket, f, g).is_zero()


class TestGenPoissonEven:
    def test_pq_pairing(self):
        amb = Ambient(2, 0)
        assert gen_poisson_even(Jet.x(amb, 1), Jet.x(amb, 2)) == Jet.one(amb)

    def test_odd_diagonal_sign(self):
        amb = Ambient(0, 1)
        xi = Jet.xi(amb, 1)
        assert gen_poisson_even(xi, xi) == Jet.const(amb, -1)

    def test_even_count_has_no_t_terms(self):
        amb = Ambient(2, 1)
        f = Jet.x(amb, 2)
        assert gen_poisson_even(Jet.one(amb), f).is_zero()

    def test_odd_count_t_terms(self):
        amb = Ambient(3, 0)
        one = Jet.one(amb)
        D = lambda a: gen_poisson_even(one, a)
        # {e, f} = (2-E)(e) df/dt = 2 df/dt
        f = Jet.x(amb, 3) * Jet.x(amb, 1)
        assert D(f) == Jet.x(amb, 1).scale(2)

    @given(st.integers(0, 2**30), st.integers(0, 1), st.integers(0, 1))
    @settings(max_examples=100)
    def test_even_skew(self, seed, pf, pg):
        amb = Ambient(3, 2)
        rng = random.Random(seed)
        f = random_jet(amb, rng, parity=pf)
        g = random_jet(amb, rng, parity=pg)
        assert even_skew_defect(gen_poisson_even, f, g).is_zero()


class TestQuasiPoisson:
    def test_single_pair(self):
        amb = Ambient(2, 0)
        dx = lambda f: f.d_even(1)
        dy = lambda f: f.d_even(2)
        out = quasi_poisson(None, [(dx, dy)], Jet.x(amb, 1), Jet.x(amb, 2))
        assert out == Jet.one(amb)

    def test_center_plus_pair(self):
        amb = Ambient(2, 0)
        x1, x2 = Jet.x(amb, 1), Jet.x(amb, 2)
        Z = lambda f: f.d_even(1).scale(2)
        X = lambda f: (x1 + x2) * f.d_even(1)
        Y = lambda f: f.d_even(2)
        out = quasi_poisson(Z, [(X, Y)], x1, x2)
        assert out == x1 + x2.scale(3)

    def test_antisymmetry(self):
        amb = Ambient(2, 0)
        f = Jet.x(amb, 1) ** 2
        g = Jet.x(amb, 1) * Jet.x(amb, 2)
        Z = lambda h: h.d_even(1)
        X = lambda h: Jet.x(amb, 2) * h.d_even(1)
        Y = lambda h: h.d_even(2)
        a = quasi_poisson(Z, [(X, Y)], f, g)
        b = quasi_poisson(Z, [(X, Y)], g, f)
        assert a == -b


class TestJacobiMayer:
    def test_pinned_values(self):
        x, y, z = (Jet.x(E30, i) for i in (1, 2, 3))
        assert jacobi_mayer(x, y) == Jet.one(E30)
        assert jacobi_mayer(x, z) == x
        assert jacobi_mayer(y, z).is_zero()

    def test_matches_bivector_form(self):
        d = [VectorField.partial(E30, "x", i) for i in (1, 2, 3)]
        xdx = VectorField(E30, {("x", 1): Jet.x(E30, 1)})
        entry = _engine(_bivector_rules(None, [(d[0], d[1]), (xdx, d[2])]),
                        E30, {"fun": 0})
        for mf in E30.monomials(3):
            for mg in E30.monomials(3):
                f = Jet(E30, {mf: F(1)})
                g = Jet(E30, {mg: F(1)})
                assert (entry.product({"fun": f}, {"fun": g})
                        == _elem("fun", jacobi_mayer(f, g)))


class TestFdBracket:
    def test_even_type_plus(self):
        amb = Ambient(1, 0)
        ddx = lambda f: f.d_even(1)
        x = Jet.x(amb, 1)
        out = fd_bracket(x, 0, 0, 0, [ddx], plus=True, odd_type=False)(x, 0)
        assert out == {0: x.scale(2)}

    def test_even_type_minus_is_lie(self):
        amb = Ambient(1, 0)
        ddx = lambda f: f.d_even(1)
        x2 = Jet.x(amb, 1, 2)
        x = Jet.x(amb, 1)
        out = fd_bracket(x2, 0, 0, 0, [ddx], plus=False,
                         odd_type=False)(x, 0)
        # x^2 * (x)' - x * (x^2)' = x^2 - 2x^2 = -x^2
        assert out == {0: -x2}

    def test_cross_slot(self):
        amb = Ambient(0, 2)
        d1 = lambda f: f.d_odd(1)
        d2 = lambda f: f.d_odd(2)
        xi1, xi2 = Jet.xi(amb, 1), Jet.xi(amb, 2)
        out = fd_bracket(xi1, 1, 0, 1, [d1, d2], plus=True,
                         odd_type=True)(xi2, 1)
        # f1 D1(f2) = xi1 * d1(xi2) = 0; f2 D2(f1) = xi2 * d2(xi1) = 0
        assert out == {}

    def test_odd_type_sign(self):
        amb = Ambient(0, 2)
        d1 = lambda f: f.d_odd(1)
        one = Jet.one(amb)
        out = fd_bracket(one, 0, 0, 0, [d1], plus=True, odd_type=True)(one, 0)
        assert out == {}


# -- reference brackets ------------------------------------------------------
# The hand-written brackets that the pairing engine replaced, kept verbatim
# as references: each rebuilt bracket must equal its reference under ==.
# quasi_poisson and fd_bracket are the bivector and derivation brackets that
# the catalog's term rows replaced (TestTermRows).


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


def _homogeneous(f: Jet):
    """Split into parity-homogeneous pieces, yielding (part, parity)."""
    for p in (0, 1):
        t = {m: c for m, c in f.terms.items() if len(m[1]) & 1 == p}
        if t:
            yield Jet(f.ambient, t), p


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


def _buttin_reference(f: Jet, g: Jet) -> Jet:
    _check_paired(f.ambient)
    if f.ambient.tau:
        raise ValueError("ambient with tau: use k_bracket")
    return _odd_pair_sum(f, g, _parity(f, "first argument"), f.ambient.n_even)


def _k_bracket_reference(f: Jet, g: Jet) -> Jet:
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


def _gen_poisson_even_reference(f: Jet, g: Jet) -> Jet:
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


def _poisson_antidiagonal_reference(f: Jet, g: Jet) -> Jet:
    amb = f.ambient
    n = amb.n_odd
    k = amb.n_even // 2
    out = Jet.zero(amb)
    for part, pf in _homogeneous(f):
        for i in range(1, k + 1):
            p, q = 2 * i - 1, 2 * i
            out = (out + part.d_even(p) * g.d_even(q)
                   - part.d_even(q) * g.d_even(p))
        sign = -1 if pf else 1
        for j in range(1, n + 1):
            out = out + (part.d_odd(j) * g.d_odd(n + 1 - j)).scale(sign)
    return out


def _pbracket_reference(self: OjpSpace, f: Jet, g: Jet) -> Jet:
    """The series product's contact bracket: x_i paired with xi_i for
    i <= n + 1 (the series variable with the marker), and E weighing x_i,
    xi_i (i <= n) by 1 and the marker by 2, as 2 eta d/d_eta."""
    n, k = self.n, self.n + 1
    eta = self.eta()

    def weight(h: Jet) -> Jet:  # (E - 2)(h)
        idx = range(1, n + 1)
        return (h.euler(even_idx=idx, odd_idx=idx)
                + (eta * h.d_odd(k)).scale(2) - h.scale(2))

    out = Jet.zero(self.ambient)
    for part, p in _homogeneous(f):
        s = _sgn(p)
        for i in range(1, k + 1):
            out = out + part.d_even(i) * g.d_odd(i)
            out = out + (part.d_odd(i) * g.d_even(i)).scale(s)
        if self.has_d:
            out = (out + weight(part) * g.d_tau()
                   + (part.d_tau() * weight(g)).scale(s))
    return out


PARITIES = st.sampled_from([0, 1, None])


def _pair(amb, seed, pf):
    """A first argument of parity pf (None: mixed) and a mixed second
    argument; sometimes one of them is zero."""
    rng = random.Random(seed)
    if not amb.n_odd:
        pf = 0
    f = random_jet(amb, rng, parity=pf, n_terms=rng.randint(0, 4))
    g = random_jet(amb, rng, n_terms=rng.randint(0, 5))
    return f, g


def _same(got_call, want_call):
    """Both calls return == jets, or both raise the same exception type."""
    try:
        want = want_call()
    except ValueError as e:
        with pytest.raises(type(e)):
            got_call()
        return
    got = got_call()
    assert got == want


class TestAgainstReferences:
    @given(st.integers(0, 2**30), PARITIES,
           st.sampled_from([O11, O22, Ambient(3, 3), Ambient(2, 1),
                            Ambient(0, 0), O12]))
    @settings(max_examples=120)
    def test_buttin(self, seed, pf, amb):
        f, g = _pair(amb, seed, pf)
        _same(lambda: buttin(f, g), lambda: _buttin_reference(f, g))

    @given(st.integers(0, 2**30), PARITIES,
           st.sampled_from([O12, O23, Ambient(0, 1, tau=True),
                            Ambient(3, 4, tau=True), Ambient(2, 2, tau=True),
                            O22]))
    @settings(max_examples=120)
    def test_k_bracket(self, seed, pf, amb):
        f, g = _pair(amb, seed, pf)
        _same(lambda: k_bracket(f, g), lambda: _k_bracket_reference(f, g))

    @given(st.integers(0, 2**30), PARITIES,
           st.sampled_from([Ambient(3, 2), Ambient(2, 3), Ambient(1, 1),
                            Ambient(0, 2), E30, Ambient(1, 0), O12]))
    @settings(max_examples=120)
    def test_gen_poisson_even(self, seed, pf, amb):
        f, g = _pair(amb, seed, pf)
        _same(lambda: gen_poisson_even(f, g),
              lambda: _gen_poisson_even_reference(f, g))

    @given(st.integers(0, 2**30), PARITIES,
           st.sampled_from([Ambient(2, 3), Ambient(3, 2), Ambient(2, 2),
                            Ambient(0, 3), Ambient(0, 0)]))
    @settings(max_examples=100)
    def test_poisson_antidiagonal(self, seed, pf, amb):
        f, g = _pair(amb, seed, pf)
        _same(lambda: poisson_antidiagonal(f, g),
              lambda: _poisson_antidiagonal_reference(f, g))

    @given(st.integers(0, 2**30), PARITIES,
           st.sampled_from([(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)]))
    @settings(max_examples=100)
    def test_ojp_pbracket(self, seed, pf, nm):
        space = OjpSpace(*nm)
        f, g = _pair(space.ambient, seed, pf)
        _same(lambda: paired_bracket(space._pairing, f, g),
              lambda: _pbracket_reference(space, f, g))

# (bound map of f, reference bracket, ambients, whether f is homogeneous)
BOUND_CASES = {
    "buttin": (lambda f: bound_bracket(_odd_pairing(f.ambient), f),
               _buttin_reference, [O11, O22, Ambient(3, 3)], True),
    "k_bracket": (lambda f: bound_bracket(_odd_pairing(f.ambient), f),
                  _k_bracket_reference, [O12, O23, Ambient(0, 1, tau=True)],
                  False),
    "gen_poisson_even": (
        lambda f: bound_bracket(_even_pairing(f.ambient, False), f),
        _gen_poisson_even_reference, [Ambient(3, 2), Ambient(2, 3), E30],
        False),
    "poisson_antidiagonal": (
        lambda f: bound_bracket(_even_pairing(f.ambient, True), f),
        _poisson_antidiagonal_reference, [Ambient(2, 3), Ambient(0, 3)],
        False),
}


def _g_run(amb, rng, n):
    """Second arguments: random jets, and jets whose operands vanish in part
    or in full (zero, a constant, one generator alone)."""
    special = [Jet.zero(amb), Jet.const(amb, rng.choice([1, -2]))]
    if amb.n_even:
        special.append(Jet.x(amb, rng.randint(1, amb.n_even)))
    if amb.n_odd:
        special.append(Jet.xi(amb, rng.randint(1, amb.n_odd)))
    out = []
    for _ in range(n):
        g = (rng.choice(special) if rng.random() < 0.4
             else random_jet(amb, rng, n_terms=rng.randint(1, 4)))
        out.append(g)
    return out


class TestBoundBracket:
    """One bound bracket applied to a run of g's: each result equals the
    reference bracket under ==, so no operand of f kept for one g leaks into
    another."""

    @given(st.integers(0, 2**30), st.sampled_from(sorted(BOUND_CASES)),
           st.integers(0, 8))
    @settings(max_examples=120)
    def test_run_matches_reference(self, seed, case, n):
        bind, reference, ambs, homogeneous = BOUND_CASES[case]
        rng = random.Random(seed)
        amb = rng.choice(ambs)
        pf = rng.randrange(2) if homogeneous and amb.n_odd else (
            0 if homogeneous else None)
        f = random_jet(amb, rng, parity=pf, n_terms=rng.randint(0, 4))
        bound = bind(f)
        for g in _g_run(amb, rng, n):
            assert bound(g) == reference(f, g)

    @given(st.integers(0, 2**30),
           st.sampled_from([(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)]))
    @settings(max_examples=60)
    def test_ojp_pbracket_run(self, seed, nm):
        space = OjpSpace(*nm)
        rng = random.Random(seed)
        f = random_jet(space.ambient, rng, n_terms=rng.randint(0, 4))
        bound = bound_bracket(space._pairing, f)
        for g in _g_run(space.ambient, rng, 6):
            assert bound(g) == _pbracket_reference(space, f, g)

    def test_parity_involution_operand(self):
        """The operand "P" negates the odd monomials of g, leaves g as it
        is, and undoes itself."""
        amb = Ambient(2, 2)
        h = j("x1*xi1 + xi1*xi2 + 3*x2 - xi2 + 1/2", amb)
        want = j("-x1*xi1 + xi1*xi2 + 3*x2 + xi2 + 1/2", amb)
        assert _operand(h, "P") == want
        assert h == j("x1*xi1 + xi1*xi2 + 3*x2 - xi2 + 1/2", amb)
        assert _operand(want, "P") == h
        assert _operand(Jet.zero(amb), "P").is_zero()

    def test_g_operands_follow_the_terms_of_f(self, monkeypatch):
        """A bound f with no x-derivative computes no x-operand of g, and a
        bound f with no xi-derivative no xi-operand of its x-partner."""
        made = []

        def counted(h, key):
            made.append((h, key))
            return _operand(h, key)

        monkeypatch.setattr("superrigid.brackets._operand", counted)
        amb = Ambient(2, 2)
        f, g = j("xi1*xi2 + xi1", amb), j("x1*x2*xi1 + x2^2 + xi2", amb)
        bound = bound_bracket(_even_pairing(amb, False), f)
        made.clear()
        assert bound(g) == _gen_poisson_even_reference(f, g)
        assert made and all(h is g and key[0] == "xi" for h, key in made)
        f = j("x1^2 + x1*x2", O22)
        bound = bound_bracket(_odd_pairing(O22), f)
        made.clear()
        assert bound(g) == _buttin_reference(f, g)
        assert sorted(key for _, key in made) == [("xi", 1), ("xi", 2)]


# -- term rows against the reference brackets --------------------------------


def _engine(rules, amb, slot_parity):
    """An oracle entry over ``rules``, so the rows run through the engine."""
    return OracleEntry("rows", amb, slot_parity, "anticommutative", rules)


def _elem(slot, f):
    return {slot: f} if not f.is_zero() else {}


def _js_1_8_derivations(alpha):
    """JS_1_8's odd derivations D1 and D2."""
    amb = Ambient(1, 2)
    one, x = Jet.one(amb), Jet.x(amb, 1)
    xi1, xi2 = Jet.xi(amb, 1), Jet.xi(amb, 2)
    return (VectorField(amb, {("xi", 1): one,
                              ("x", 1): xi1 + xi2.scale(alpha)}),
            VectorField(amb, {("xi", 2): one, ("x", 1): x * xi2,
                              ("xi", 1): (xi1 * xi2).scale(-1)}))


def _even_derivations():
    """Two even derivations on an ambient with an odd generator."""
    amb = Ambient(2, 1)
    w = Jet.one(amb) + Jet.x(amb, 1) * Jet.x(amb, 2)
    return (VectorField.partial(amb, "x", 1), VectorField(amb, {("x", 2): w}))


FD_CASES = {"odd_alpha_0": lambda: _js_1_8_derivations(0),
            "odd_alpha_1": lambda: _js_1_8_derivations(1),
            "even": _even_derivations}


def _bivector_case(name):
    """(ambient, Z, wedge pairs) of a bivector."""
    if name == "jacobi_mayer":
        d = [VectorField.partial(E30, "x", i) for i in (1, 2, 3)]
        return E30, None, [(d[0], d[1]),
                           (VectorField(E30, {("x", 1): Jet.x(E30, 1)}), d[2])]
    if name == "translation":
        amb = Ambient(2, 0)
        w = Jet.x(amb, 1) + Jet.x(amb, 2)
        return amb, VectorField(amb, {("x", 1): Jet.const(amb, 2)}), [
            (VectorField(amb, {("x", 1): w}), VectorField.partial(amb, "x", 2))]
    amb = O12
    xi1, tau = Jet.xi(amb, 1), Jet.tau_gen(amb)
    return amb, VectorField(amb, {("x", 1): xi1, ("xi", 2): tau}), [
        (VectorField.partial(amb, "xi", 1),
         VectorField(amb, {("xi", 2): Jet.x(amb, 1)})),
        (VectorField(amb, {("x", 1): tau, ("xi", 1): Jet.one(amb)}),
         VectorField.partial(amb, "x", 1))]


class TestTermRows:
    """The catalog's term rows, run through the engine, equal the brackets
    they replaced on every pair of parities of f and g."""

    @pytest.mark.parametrize("pf", [0, 1])
    @pytest.mark.parametrize("pg", [0, 1])
    @pytest.mark.parametrize("plus", [True, False])
    @pytest.mark.parametrize("case", sorted(FD_CASES))
    def test_fd_rows_match_fd_bracket(self, case, plus, pf, pg):
        d1, d2 = FD_CASES[case]()
        amb, odd = d1.ambient, d1.parity()
        names = ("D1", "D2")
        entry = _engine(_fd_rules({"D1": d1, "D2": d2}, plus=plus), amb,
                        {"D1": odd, "D2": odd})
        rng = random.Random(7 * pf + 3 * pg + plus)
        for _ in range(6):
            f = random_jet(amb, rng, parity=pf, n_terms=rng.randint(0, 3))
            g = random_jet(amb, rng, parity=pg, n_terms=rng.randint(0, 3))
            for i1 in (0, 1):
                for i2 in (0, 1):
                    want = fd_bracket(f, pf, i1, i2, [d1, d2],
                                      plus=plus, odd_type=bool(odd))(g, pg)
                    got = entry.product({names[i1]: f}, {names[i2]: g})
                    assert got == {names[i]: c for i, c in want.items()}

    @pytest.mark.parametrize("case, pf, pg", [
        ("jacobi_mayer", 0, 0), ("translation", 0, 0), ("odd", 0, 0),
        ("odd", 0, 1), ("odd", 1, 0), ("odd", 1, 1)])
    def test_bivector_rows_match_quasi_poisson(self, case, pf, pg):
        amb, z, pairs = _bivector_case(case)
        entry = _engine(_bivector_rules(z, pairs), amb, {"fun": 0})
        rng = random.Random(5 * pf + pg)
        for _ in range(8):
            f = random_jet(amb, rng, parity=pf)
            g = random_jet(amb, rng, parity=pg)
            want = quasi_poisson(z, pairs, f, g)
            assert entry.product({"fun": f}, {"fun": g}) == _elem("fun", want)
