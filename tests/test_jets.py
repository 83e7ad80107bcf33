import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_jet, whole_as_int
from superrigid.brackets import _odd_pairing, bound_bracket
from superrigid.jets import (
    Ambient,
    ExprError,
    Jet,
    _mul_into,
    div_beta,
    format_jet,
    MAX_NESTING,
    merge_sign,
    odd_laplacian,
    parse_jet,
)

A22 = Ambient(2, 2)
A11 = Ambient(1, 1)
A23 = Ambient(2, 3, tau=True)


def x(i, amb=A22):
    return Jet.x(amb, i)


def xi(j, amb=A22):
    return Jet.xi(amb, j)


class TestMergeSign:
    def test_disjoint_ordered(self):
        assert merge_sign((1,), (2,)) == (1, (1, 2))

    def test_disjoint_swapped(self):
        assert merge_sign((2,), (1,)) == (-1, (1, 2))

    def test_repeat_kills(self):
        assert merge_sign((1, 3), (3,)) == (0, ())

    def test_interleaved(self):
        # 2 hops over 3 -> one transposition
        assert merge_sign((1, 3), (2,)) == (-1, (1, 2, 3))


class TestProduct:
    def test_odd_square_zero(self):
        assert (xi(1) * xi(1)).is_zero()

    def test_anticommute(self):
        assert xi(2) * xi(1) == (xi(1) * xi(2)).scale(-1)

    def test_even_commute(self):
        f = x(1) * x(2)
        assert f == x(2) * x(1)
        assert f.terms[((1, 1), ())] == 1

    def test_mixed(self):
        f = (x(1) + xi(1)) * (x(1) - xi(1))
        assert f == Jet.x(A22, 1, 2)

    def test_mixed_ambients_rejected(self):
        f, g = Jet.x(A11, 1), Jet.x(Ambient(2, 0), 2)
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(ValueError):
                op(f, g)
        # equal ambients built separately still combine
        assert Jet.x(A11, 1) * Jet.x(Ambient(1, 1), 1) == Jet.x(A11, 1, 2)

    def test_negative_powers_rejected(self):
        with pytest.raises(ValueError):
            x(1) ** -1
        with pytest.raises(ValueError):
            Jet.x(A22, 1, -2)
        assert x(1) ** 0 == Jet.one(A22)

    @given(st.integers(0, 2**30), st.integers(0, 1), st.integers(0, 1))
    @settings(max_examples=150)
    def test_supercommutative(self, seed, pf, pg):
        rng = random.Random(seed)
        f = random_jet(A22, rng, parity=pf)
        g = random_jet(A22, rng, parity=pg)
        sign = -1 if pf and pg else 1
        assert f * g == (g * f).scale(sign)

    @given(st.integers(0, 2**30))
    @settings(max_examples=100)
    def test_associative(self, seed):
        rng = random.Random(seed)
        f, g, h = (random_jet(A22, rng) for _ in range(3))
        assert (f * g) * h == f * (g * h)


class TestDerivatives:
    def test_even_partial(self):
        f = Jet.x(A22, 1, 3)
        assert f.d_even(1) == Jet.x(A22, 1, 2).scale(3)
        assert f.d_even(2).is_zero()

    def test_left_odd_partial_signs(self):
        f = xi(1) * xi(2)
        assert f.d_odd(1) == xi(2)
        assert f.d_odd(2) == xi(1).scale(-1)

    def test_odd_partial_squares_to_zero(self):
        rng = random.Random(7)
        f = random_jet(A22, rng, n_terms=6)
        assert f.d_odd(1).d_odd(1).is_zero()

    @given(st.integers(0, 2**30), st.integers(0, 1))
    @settings(max_examples=150)
    def test_odd_leibniz(self, seed, pf):
        rng = random.Random(seed)
        f = random_jet(A22, rng, parity=pf)
        g = random_jet(A22, rng)
        lhs = (f * g).d_odd(1)
        sign = -1 if pf else 1
        rhs = f.d_odd(1) * g + (f * g.d_odd(1)).scale(sign)
        assert lhs == rhs

    @given(st.integers(0, 2**30))
    @settings(max_examples=100)
    def test_even_leibniz(self, seed):
        rng = random.Random(seed)
        f = random_jet(A22, rng)
        g = random_jet(A22, rng)
        assert (f * g).d_even(1) == f.d_even(1) * g + f * g.d_even(1)

    def test_partials_anticommute(self):
        rng = random.Random(3)
        f = random_jet(A22, rng, n_terms=6)
        assert f.d_odd(1).d_odd(2) == f.d_odd(2).d_odd(1).scale(-1)


class TestEuler:
    def test_counts_degree(self):
        f = Jet(A22, {((2, 1), (1,)): F(1)})
        assert f.euler() == f.scale(4)

    def test_tau_excluded_by_default(self):
        f = Jet.tau_gen(A23)
        assert f.euler().is_zero()
        g = Jet.xi(A23, 1)
        assert g.euler() == g

    def test_explicit_index_sets(self):
        f = Jet(A22, {((1, 2), (1, 2)): F(1)})
        assert f.euler(even_idx=[2], odd_idx=[]) == f.scale(2)

    def test_repeated_index_counts_each_time(self):
        f = Jet(A22, {((1, 2), (1, 2)): F(1)})
        assert f.euler(even_idx=[2, 2], odd_idx=[1, 1, 2]) == f.scale(7)
        eta = Jet.xi(A23, 2)
        assert eta.euler(even_idx=(), odd_idx=(1, 2, 2)) == eta.scale(2)


class TestBadInput:
    """Malformed generator counts and indices raise ValueError, never a
    RecursionError or a key that is no monomial."""

    @pytest.mark.parametrize("n_even, n_odd", [
        (-1, 2), (1.5, 0), (2, -1), (0, 1.0), (True, 0), ("2", 1)])
    def test_ambient_counts(self, n_even, n_odd):
        with pytest.raises(ValueError, match="generator counts"):
            Ambient(n_even, n_odd)

    @pytest.mark.parametrize("make", [
        lambda amb: Jet.x(amb, 1, 1.5), lambda amb: Jet.x(amb, 1.0),
        lambda amb: Jet.x(amb, 0), lambda amb: Jet.xi(amb, 1.0),
        lambda amb: Jet.xi(amb, 2), lambda amb: Jet.xi(amb, True)])
    def test_generators(self, make):
        with pytest.raises(ValueError):
            make(Ambient(2, 1))

    @pytest.mark.parametrize("i", [0, -1, 3, 1.0])
    def test_even_index_of_derivatives(self, i):
        amb = Ambient(2, 1)
        f = Jet.x(amb, 1) * Jet.x(amb, 2)
        with pytest.raises(ValueError, match="not in Ambient"):
            f.d_even(i)
        with pytest.raises(ValueError, match="not in Ambient"):
            f.antiderivative(i)

    @pytest.mark.parametrize("j", [0, -1, 2, 5, 1.0])
    def test_odd_index_of_derivative(self, j):
        amb = Ambient(2, 1)
        with pytest.raises(ValueError, match="not in Ambient"):
            (Jet.x(amb, 1) * Jet.xi(amb, 1)).d_odd(j)

    @pytest.mark.parametrize("k", [1.5, 2.0, -1, True])
    def test_power(self, k):
        with pytest.raises(ValueError, match=re.escape(repr(k))):
            Jet.x(Ambient(2, 1), 1) ** k

    @pytest.mark.parametrize("deg", [1.5, 2.0, None, -1])
    def test_monomial_degree(self, deg):
        # Ambient(0, 2) listed all four odd monomials for degree -1.
        for amb in (Ambient(2, 1), Ambient(0, 2)):
            with pytest.raises(ValueError, match=re.escape(repr(deg))):
                list(amb.monomials(deg))

    @pytest.mark.parametrize("c", ["1/0", "one", None, float("nan"),
                                   float("inf"), "x1", [1]])
    def test_scale_and_constant(self, c):
        amb = Ambient(2, 1)
        with pytest.raises(ValueError, match=re.escape(repr(c))):
            Jet.x(amb, 1).scale(c)
        with pytest.raises(ValueError, match=re.escape(repr(c))):
            Jet.const(amb, c)
        with pytest.raises(ValueError, match=re.escape(repr(c))):
            Jet.x(amb, 1).antiderivative(1, c)

    @pytest.mark.parametrize("beta", ["1/0", "one", None, float("nan")])
    def test_div_beta(self, beta):
        # None raised a TypeError.
        f = Jet.x(A23, 1) * Jet.tau_gen(A23)
        with pytest.raises(ValueError, match=re.escape(repr(beta))):
            div_beta(f, beta)

    @pytest.mark.parametrize("c", ["1/0", "one", None, float("nan"),
                                   float("inf"), "x1", [1], True])
    def test_constructor_coefficient(self, c):
        # Jet(amb, {m: "one"}) stored the text, a None was dropped and a
        # True was stored as 1.
        amb = Ambient(2, 1)
        with pytest.raises(ValueError, match=re.escape(repr(c))):
            Jet(amb, {((1, 0), ()): c})

    @pytest.mark.parametrize("c, want", [
        ("1/2", F(1, 2)), (0.5, F(1, 2)), ("3", 3), (F(4, 2), 2), (-2.0, -2)])
    def test_constructor_converts_exact_values(self, c, want):
        # A string or a float was stored as it was given.
        m = ((1, 0), ())
        got = Jet(Ambient(2, 1), {m: c, ((0, 0), ()): "0"}).terms
        assert got == {m: want} and type(got[m]) is type(want)


class TestLaplacianAndDivergence:
    def test_basic_pairing(self):
        f = x(1) * xi(1)
        assert odd_laplacian(f) == Jet.one(A22)

    def test_two_pair(self):
        f = x(1) * x(2) * xi(1) * xi(2)
        expect = x(2) * xi(2) - x(1) * xi(1)
        assert odd_laplacian(f) == expect

    def test_div_beta_on_tau_free(self):
        f = Jet.x(A23, 1) * Jet.xi(A23, 1)
        assert div_beta(f, F(1, 2)) == Jet.one(A23)

    def test_div_beta_weighted_term(self):
        # f = x1 * tau: laplacian 0; tau-derivative x1 has euler weight 1
        f = Jet.x(A23, 1) * Jet.tau_gen(A23)
        out = div_beta(f, F(1, 2))
        assert out == Jet.x(A23, 1).scale(F(1) - F(1, 2) * 2)


class TestAntiderivative:
    def test_antiderivative_raises(self):
        g = x(1, A11).antiderivative(1)
        assert g == Jet.x(A11, 1, 2).scale(F(1, 2))

    def test_division_is_exact(self):
        # c / (e + 1) on an int coefficient gave the float 0.5.
        g = Jet(A11, {((1,), ()): 1}).antiderivative(1)
        assert g.terms == {((2,), ()): F(1, 2)}
        assert type(g.terms[((2,), ())]) is F
        # A whole quotient is an int.
        h = Jet(A11, {((1,), ()): 4, ((2,), (1,)): F(3, 2)}).antiderivative(1)
        assert h.terms == {((2,), ()): 2, ((3,), (1,)): F(1, 2)}
        assert type(h.terms[((2,), ())]) is int
        assert whole_as_int(Jet.one(A11).antiderivative(1, F(6, 3)).terms)

    def test_antiderivative_constant(self):
        f = Jet.one(A11)
        g = f.antiderivative(1, constant=1)
        assert g == Jet.x(A11, 1) + Jet.one(A11)
        assert f.antiderivative(1).d_even(1) == f


class TestFormat:
    def test_examples(self):
        assert format_jet(Jet.zero(A22)) == "0"
        f = (x(1) * xi(2)).scale(2)
        assert format_jet(f) == "2*x1*xi2"
        assert format_jet(Jet.x(A22, 1, 2)) == "x1^2"
        assert format_jet(xi(1).scale(-1)) == "-xi1"
        g = Jet.one(A22) - x(1).scale(F(1, 2))
        assert format_jet(g) == "1 - 1/2*x1"

    def test_tau_name(self):
        assert format_jet(Jet.tau_gen(A23)) == "tau"


class TestParser:
    def test_simple_terms(self):
        assert parse_jet("x1^2", A22) == Jet.x(A22, 1, 2)
        assert parse_jet("xi1*xi2", A22) == xi(1) * xi(2)
        assert parse_jet("2*x1*xi2", A22) == (x(1) * xi(2)).scale(2)

    def test_signs_and_rationals(self):
        f = parse_jet("1/2*x1 - x2 + 3", A22)
        assert f == x(1).scale(F(1, 2)) - x(2) + Jet.const(A22, 3)
        assert parse_jet("-x1", A22) == -x(1)

    def test_juxtaposition(self):
        assert parse_jet("2 x1 xi1", A22) == (x(1) * xi(1)).scale(2)

    def test_parens(self):
        f = parse_jet("x1*(1 + x2)^2", A22)
        assert f == x(1) * (Jet.one(A22) + x(2)) ** 2

    def test_pq_aliases(self):
        amb = Ambient(4, 1)
        assert parse_jet("p1", amb) == Jet.x(amb, 1)
        assert parse_jet("q1", amb) == Jet.x(amb, 2)
        assert parse_jet("p2*q2", amb) == Jet.x(amb, 3) * Jet.x(amb, 4)

    def test_tau_and_params(self):
        f = parse_jet("tau*x1", A23)
        assert f == Jet.x(A23, 1) * Jet.tau_gen(A23)
        g = parse_jet("alpha*x1 + beta", A23, params={"alpha": F(2), "beta": F(1, 3)})
        assert g == Jet.x(A23, 1).scale(2) + Jet.const(A23, F(1, 3))
        assert whole_as_int(g.terms)
        with pytest.raises(ValueError, match="'one'"):
            parse_jet("alpha*x1", A23, params={"alpha": "one"})

    def test_literals_follow_the_rule(self):
        f = parse_jet("4/2*x1 - 1/2*x2 + 3", A22)
        assert f.terms == {((1, 0), ()): 2, ((0, 1), ()): F(-1, 2),
                           ((0, 0), ()): 3}
        assert whole_as_int(f.terms)

    def test_roundtrip_format(self):
        f = (x(1) * xi(2)).scale(2) - Jet.x(A22, 2, 3).scale(F(1, 2))
        assert parse_jet(format_jet(f), A22) == f

    def test_errors(self):
        for bad in ("x9", "xi5", "x1^0", "x1^", "(x1", "x1 +", "$", "y1"):
            with pytest.raises(ExprError):
                parse_jet(bad, A22)
        with pytest.raises(ExprError):
            parse_jet("tau", A22)
        with pytest.raises(ExprError):
            parse_jet("xi3", A23)

    def test_zero_denominator(self):
        with pytest.raises(ExprError):
            parse_jet("1/0", A22)
        with pytest.raises(ExprError):
            parse_jet("x1 + 3/0*x2", A22)

    def test_nesting_limit(self):
        def nested(n):
            return "(" * n + "x1" + ")" * n

        assert parse_jet(nested(MAX_NESTING), A22) == x(1)
        for n in (MAX_NESTING + 1, 1400):
            with pytest.raises(ExprError):
                parse_jet(nested(n), A22)


# -- kernel properties: each operation against a reference built through the
# filtering constructor Jet(amb, terms) --------------------------------------

A32 = Ambient(2, 3, tau=True)
MONOS = sorted(A32.monomials(4))
COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def jets(draw):
    terms = draw(st.dictionaries(st.sampled_from(MONOS), COEFFS, max_size=6))
    return Jet(A32, terms)


def ref_add(f, g):
    out = dict(f.terms)
    for m, c in g.terms.items():
        out[m] = out.get(m, F(0)) + c
    return Jet(f.ambient, out)


def ref_mul(f, g):
    out = {}
    for (ex1, od1), c1 in f.terms.items():
        for (ex2, od2), c2 in g.terms.items():
            sign, odds = merge_sign(od1, od2)
            key = (tuple(a + b for a, b in zip(ex1, ex2)), odds)
            out[key] = out.get(key, F(0)) + sign * c1 * c2
    return Jet(f.ambient, out)


def ref_map(f, fn):
    """Jet with each term (m, c) of f sent to fn(m, c) -> (m', c') or None."""
    out = {}
    for m, c in f.terms.items():
        hit = fn(m, c)
        if hit is not None:
            out[hit[0]] = hit[1]
    return Jet(f.ambient, out)


def assert_clean(h, *inputs):
    """No zero coefficient, no shared dict, and each coefficient an int when
    it is whole and a Fraction otherwise."""
    assert all(c != 0 for c in h.terms.values())
    assert all(h.terms is not f.terms for f in inputs)
    assert whole_as_int(h.terms)


class TestKernelProperties:
    @given(jets(), jets())
    @settings(max_examples=60)
    def test_add_sub_neg(self, f, g):
        for got, want in ((f + g, ref_add(f, g)),
                          (f - g, ref_add(f, ref_map(
                              g, lambda m, c: (m, -c)))),
                          (-f, ref_map(f, lambda m, c: (m, -c)))):
            assert got == want
            assert_clean(got, f, g)

    @given(jets())
    @settings(max_examples=25)
    def test_add_to_itself_negated(self, f):
        h = f + (-f)
        assert h.is_zero()

    @given(jets(), jets())
    @settings(max_examples=60)
    def test_mul(self, f, g):
        h = f * g
        assert h == ref_mul(f, g)
        assert_clean(h, f, g)

    @given(jets(), st.sampled_from([0, 1, -1, 2, -3, F(0), F(1), F(-1),
                                    F(2, 3), F(-5, 2)]))
    @settings(max_examples=60)
    def test_scale(self, f, c):
        h = f.scale(c)
        assert h == ref_map(f, lambda m, v: (m, F(c) * v))
        assert_clean(h, f)
        assert h == c * f == f * c

    @given(jets(), st.integers(1, 2))
    @settings(max_examples=40)
    def test_d_even(self, f, i):
        def d(m, c):
            ex, odds = m
            if ex[i - 1]:
                ex2 = ex[:i - 1] + (ex[i - 1] - 1,) + ex[i:]
                return (ex2, odds), c * ex[i - 1]
        h = f.d_even(i)
        assert h == ref_map(f, d)
        assert_clean(h, f)

    @given(jets(), st.integers(1, 3))
    @settings(max_examples=40)
    def test_d_odd(self, f, j):
        def d(m, c):
            ex, odds = m
            if j in odds:
                pos = odds.index(j)
                return (ex, odds[:pos] + odds[pos + 1:]), (-1) ** pos * c
        h = f.d_odd(j)
        assert h == ref_map(f, d)
        assert_clean(h, f)

    @given(jets(), st.one_of(st.none(), st.sets(st.integers(1, 2))),
           st.one_of(st.none(), st.sets(st.integers(1, 3))))
    @settings(max_examples=40)
    def test_euler(self, f, ev, od):
        ev_w = {1, 2} if ev is None else ev
        od_w = {1, 2} if od is None else od   # tau (xi3) is skipped

        def e(m, c):
            ex, odds = m
            w = sum(ex[i - 1] for i in ev_w) + sum(1 for j in odds if j in od_w)
            return ((ex, odds), c * w) if w else None
        h = f.euler(ev, od)
        assert h == ref_map(f, e)
        assert_clean(h, f)


# -- whole coefficients: jets of ints stay on ints, and a division stores a
# whole quotient as an int -------------------------------------------------

INTS = st.integers(-3, 3).filter(bool)


@st.composite
def int_jets(draw):
    return Jet(A32, draw(st.dictionaries(st.sampled_from(MONOS), INTS,
                                         max_size=6)))


def as_fractions(f):
    """f with each coefficient a Fraction, whole ones too, built unchecked:
    a reference input that breaks the rule on purpose."""
    return Jet._clean(f.ambient, {m: F(c) for m, c in f.terms.items()})


def int_ops(f, g):
    """The operations that keep int coefficients, on f and g."""
    k = bound_bracket(_odd_pairing(f.ambient), f)
    return [f + g, f - g, -f, f * g, f.scale(-2), 3 * f, f.d_even(1),
            f.d_even(2), f.d_odd(1), f.d_odd(3), f.euler(), f.euler((2, 2)),
            k(g)]


class TestWholeCoefficients:
    @given(int_jets(), int_jets())
    @settings(max_examples=60)
    def test_int_jets_stay_int(self, f, g):
        got = int_ops(f, g)
        for h in got:
            assert all(type(c) is int for c in h.terms.values())
        assert got == int_ops(as_fractions(f), as_fractions(g))

    @given(st.one_of(int_jets(), jets()), st.integers(1, 2),
           st.fractions(min_value=-3, max_value=3, max_denominator=6))
    @settings(max_examples=60)
    def test_divisions_store_whole_quotients_as_ints(self, f, i, c):
        fr = as_fractions(f)
        for h, ref in ((f.antiderivative(i), fr.antiderivative(i)),
                       (f.scale(c), fr.scale(c))):
            assert whole_as_int(h.terms) and h == ref
        assert whole_as_int(f.antiderivative(i, c).terms)
        want = {}
        for (ex, odds), v in f.terms.items():
            ex2 = ex[:i - 1] + (ex[i - 1] + 1,) + ex[i:]
            want[(ex2, odds)] = F(v) / (ex[i - 1] + 1)
        assert f.antiderivative(i) == Jet(A32, want)

    @given(jets(), jets(), jets())
    @settings(max_examples=60)
    def test_mul_into(self, a, b, c):
        out = dict(c.terms)
        _mul_into(out, a.terms, b.terms)
        assert Jet(A32, out) == c + a * b
        assert whole_as_int(out) and all(out.values())
