import hashlib
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_field, random_jet
from superrigid.brackets import buttin
from superrigid.fields import (
    FamilyRealization,
    GradingSpec,
    VectorField,
    divergence,
    format_field,
    lie_bracket,
    parse_field,
    parse_slot,
)
from superrigid.jets import Ambient, Jet, div_beta, odd_laplacian, parse_jet

A11 = Ambient(1, 1)
A22 = Ambient(2, 2)
A12 = Ambient(1, 2)


def dx(amb, i=1):
    return VectorField.partial(amb, "x", i)


def dxi(amb, j=1):
    return VectorField.partial(amb, "xi", j)


class TestApply:
    def test_even_action(self):
        X = parse_jet("x1", A11) * dx(A11)
        assert X(Jet.x(A11, 1, 2)) == Jet.x(A11, 1, 2).scale(2)

    def test_odd_action(self):
        X = dxi(A22, 1)
        f = parse_jet("xi1*xi2", A22)
        assert X(f) == Jet.xi(A22, 2)

    def test_koszul_in_coefficient(self):
        X = Jet.xi(A22, 1) * dx(A22, 1)
        f = parse_jet("x1*xi2", A22)
        assert X(f) == parse_jet("xi1*xi2", A22)

    @given(st.integers(0, 2**30))
    @settings(max_examples=120)
    def test_superderivation_of_product(self, seed):
        rng = random.Random(seed)
        p = rng.randrange(2)
        X = random_field(A22, rng, parity=p)
        f = random_jet(A22, rng, parity=rng.randrange(2))
        g = random_jet(A22, rng)
        pf = f.parity() or 0
        sign = -1 if p and pf else 1
        assert X(f * g) == X(f) * g + (f * X(g)).scale(sign)


def _parity_parts(X: VectorField) -> list:
    """Parity-homogeneous parts of a field as (part, parity) pairs: none for
    zero, the field itself when it is homogeneous."""
    parts: dict = {}
    for s, c in X.coeffs.items():
        for part, p in c.parity_parts():
            parts.setdefault(p ^ (s[0] == "xi"), {})[s] = part
    if len(parts) == 1:
        return [(X, p) for p in parts]
    return [(VectorField(X.ambient, cs), p) for p, cs in parts.items()]


def lie_bracket_reference(X: VectorField, Y: VectorField) -> VectorField:
    """Superbracket of derivations, in coefficient form; extends bilinearly
    over mixed-parity inputs.  Both fields are split by parity, and each
    pair of parts is bracketed as X Y - (-1)^{p(X)p(Y)} Y X."""
    out = VectorField.zero(X.ambient)
    for Xh, px in _parity_parts(X):
        for Yh, py in _parity_parts(Y):
            sign = -1 if px and py else 1
            coeffs = {}
            for s, c in Yh.coeffs.items():
                coeffs[s] = Xh(c)
            for s, c in Xh.coeffs.items():
                v = Yh(c).scale(-sign)
                coeffs[s] = coeffs[s] + v if s in coeffs else v
            out = out + VectorField(X.ambient, coeffs)
    return out


def _mixed_field(amb: Ambient, rng: random.Random) -> VectorField:
    """A field whose coefficients may each mix even and odd terms."""
    slots = [("x", i) for i in range(1, amb.n_even + 1)]
    slots += [("xi", k) for k in range(1, amb.n_odd + 1)]
    return VectorField(amb, {s: random_jet(amb, rng, n_terms=rng.randint(0, 3))
                             for s in rng.sample(slots, rng.randint(1, 3))})


class TestLieBracket:
    def test_even_pair(self):
        X = dx(A11)
        Y = parse_jet("x1", A11) * dx(A11)
        assert lie_bracket(X, Y) == X

    def test_odd_odd_anticommutator(self):
        X = dxi(A11)
        Y = Jet.xi(A11, 1) * dxi(A11)
        assert lie_bracket(X, Y) == X

    def test_odd_square(self):
        X = dxi(A11)
        assert lie_bracket(X, X).is_zero()

    @given(st.integers(0, 2**30))
    @settings(max_examples=100)
    def test_bracket_is_commutator_of_actions(self, seed):
        rng = random.Random(seed)
        px, py = rng.randrange(2), rng.randrange(2)
        X = random_field(A22, rng, parity=px)
        Y = random_field(A22, rng, parity=py)
        f = random_jet(A22, rng)
        sign = -1 if px and py else 1
        lhs = lie_bracket(X, Y)(f)
        rhs = X(Y(f)) + (Y(X(f))).scale(-sign)
        assert lhs == rhs

    @given(st.integers(0, 2**30),
           st.sampled_from([Ambient(2, 2), Ambient(1, 3),
                            Ambient(1, 2, tau=True)]))
    @settings(max_examples=150)
    def test_matches_reference(self, seed, amb):
        """The bracket through brackets.bind_terms equals the reference on
        homogeneous and mixed fields, on ambients with both slot kinds,
        where the parity involution of its second half is used."""
        rng = random.Random(seed)
        X, Y = (random_field(amb, rng, parity=p) if p is not None
                else _mixed_field(amb, rng)
                for p in (rng.choice([0, 1, None]) for _ in range(2)))
        assert lie_bracket(X, Y) == lie_bracket_reference(X, Y)

    @pytest.mark.parametrize("a, b", [(A11, Ambient(2, 1)),
                                      (Ambient(2, 1), A11)])
    def test_different_ambients_raise(self, a, b):
        with pytest.raises(ValueError, match="do not combine"):
            lie_bracket(dx(a), dxi(b))
        with pytest.raises(ValueError, match="do not combine"):
            lie_bracket(VectorField.zero(a), dx(b))

    def test_super_jacobi_on_monomial_fields(self):
        amb = A12
        fields = []
        for kind, limit in (("x", 1), ("xi", 2)):
            for idx in range(1, limit + 1):
                for m in amb.monomials(2):
                    if sum(m[0]) > 2:
                        continue
                    c = Jet(amb, {m: F(1)})
                    fields.append(c * VectorField.partial(amb, kind, idx))
        rng = random.Random(0)
        for _ in range(200):
            X, Y, Z = (rng.choice(fields) for _ in range(3))
            px = X.parity()
            py = Y.parity()
            sign = -1 if px and py else 1
            lhs = lie_bracket(X, lie_bracket(Y, Z))
            rhs = lie_bracket(lie_bracket(X, Y), Z) + lie_bracket(
                Y, lie_bracket(X, Z)
            ).scale(sign)
            assert lhs == rhs


class TestFieldInput:
    """A slot that is no generator of the ambient, or a coefficient that is
    no jet on it, raises a ValueError naming the slot."""

    @pytest.mark.parametrize("slot, coeff, named", [
        (("x", 7), Jet.x(Ambient(1, 0), 1), "x7"),
        (("y", 1), Jet.x(Ambient(1, 0), 1), "('y', 1)"),
        (("x", 1), 3, "('x', 1)"),
        (("x", 1), Jet.x(Ambient(2, 0), 1), "('x', 1)"),
    ], ids=["index", "kind", "int coefficient", "other ambient"])
    def test_bad_input_is_named(self, slot, coeff, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            VectorField(Ambient(1, 0), {slot: coeff})

    def test_partial_checks_its_slot(self):
        with pytest.raises(ValueError, match="unknown slot"):
            VectorField.partial(A11, "y", 1)
        with pytest.raises(ValueError, match="xi2"):
            VectorField.partial(A11, "xi", 2)


class TestDivergence:
    def test_zero_case(self):
        assert divergence(parse_jet("x1", A22) * dx(A22, 2)).is_zero()

    def test_unit_case(self):
        assert divergence(parse_jet("x1", A22) * dx(A22, 1)) == Jet.one(A22)

    def test_registry_element_is_divergence_free(self):
        amb = Ambient(1, 4)
        mu = parse_field(
            [
                ("xi1", "dxi3"),
                ("xi2", "dxi4"),
                ("xi1*xi3", "dx1"),
                ("alpha*xi1*xi4", "dx1"),
                ("x1*xi2*xi4", "dx1"),
                ("xi2*xi4*xi3", "dxi3"),
            ],
            amb,
            params={"alpha": F(1)},
        )
        assert divergence(mu).is_zero()

    @given(st.integers(0, 2**30))
    @settings(max_examples=100)
    def test_divergence_of_bracket(self, seed):
        rng = random.Random(seed)
        px, py = rng.randrange(2), rng.randrange(2)
        X = random_field(A22, rng, max_even_deg=2, parity=px)
        Y = random_field(A22, rng, max_even_deg=2, parity=py)
        sign = -1 if px and py else 1
        lhs = divergence(lie_bracket(X, Y))
        rhs = X(divergence(Y)) + (Y(divergence(X))).scale(-sign)
        assert lhs == rhs


class TestDivBeta:
    def test_tau_value(self):
        amb = Ambient(2, 3, tau=True)
        assert div_beta(Jet.tau_gen(amb), F(1, 3)) == Jet.const(amb, -F(2, 3))

    def test_pairing_value(self):
        amb = Ambient(2, 3, tau=True)
        f = parse_jet("x1*xi1", amb)
        assert div_beta(f, F(1, 2)) == Jet.one(amb)

    def test_chain_element_in_kernel(self):
        # x2 + x2*xi1*tau - 1/2*x2^2*xi1*xi2 at beta = 1/2
        amb = Ambient(2, 3, tau=True)
        f = parse_jet("x2 + x2*xi1*tau - 1/2*x2^2*xi1*xi2", amb)
        assert div_beta(f, F(1, 2)).is_zero()


class TestFormatting:
    def test_field_format(self):
        X = dx(A22, 1) + parse_jet("2*x1", A22) * dxi(A22, 2)
        assert format_field(X) == "dx1 + 2*x1*dxi2"
        assert format_field(VectorField.zero(A22)) == "0"

    def test_parse_slot(self):
        amb = Ambient(2, 3, tau=True)
        assert parse_slot("dx2", amb) == ("x", 2)
        assert parse_slot("dxi1", amb) == ("xi", 1)
        assert parse_slot("dtau", amb) == ("xi", 3)
        # 5 raised a bare AttributeError.
        for text in ("dq1", 5, None, ("dx1",)):
            with pytest.raises(ValueError,
                               match=re.escape(f"bad slot {text!r}")):
                parse_slot(text, amb)
        with pytest.raises(ValueError):
            parse_slot("dtau", A22)
        # tau has one name, as in parse_jet
        with pytest.raises(ValueError, match="use 'dtau'"):
            parse_slot("dxi3", amb)
        for text in ("dx0", "dx3", "dxi0", "dxi4"):
            with pytest.raises(ValueError, match="not in Ambient"):
                parse_slot(text, amb)

    def test_parse_field_roundtrip(self):
        X = parse_field([("xi1", "dx1"), ("-x1^2", "dxi2")], A22)
        assert X.coeffs[("x", 1)] == Jet.xi(A22, 1)
        assert X.coeffs[("xi", 2)] == -Jet.x(A22, 1, 2)


class TestGradingSpec:
    def test_weights_with_tau(self):
        amb = Ambient(2, 3, tau=True)
        spec = GradingSpec((0, 1), (0, -1, 0))
        f = parse_jet("x2*xi2", amb)
        assert spec.wdeg(next(iter(f.terms))) == 0

    @pytest.mark.parametrize("even, odd, bad", [
        ((), ("a", 1), "'a'"), ((), (1.5, 1), "1.5"), ((True,), (1,), "True"),
    ])
    def test_weights_are_integers(self, even, odd, bad):
        # ("a", 1) raised a bare TypeError inside basis_of_degree, and with
        # (1.5, 1) basis_of_degree(-1, 2) dropped dxi1.
        with pytest.raises(ValueError, match=f"weight {re.escape(bad)} is "
                                             "not an integer"):
            GradingSpec(even, odd)

    @pytest.mark.parametrize("family", ["W", "HO"])
    @pytest.mark.parametrize("k", ["a", 1.0, True])
    def test_degree_is_an_integer(self, family, k):
        # basis_of_degree("a", 1) returned [].
        real = FamilyRealization(family, GradingSpec((1, 1), (1, 1)))
        with pytest.raises(ValueError, match=f"degree {re.escape(repr(k))}"):
            real.basis_of_degree(k, 1)


class TestBasisOfDegree:
    def test_full_family_small_degree(self):
        spec = GradingSpec((), (1, 1, 0))
        got = FamilyRealization("W", spec).basis_of_degree(-1, order=0)
        amb = Ambient(0, 3)
        expect = {
            VectorField.partial(amb, "xi", 1),
            VectorField.partial(amb, "xi", 2),
            Jet.xi(amb, 3) * VectorField.partial(amb, "xi", 1),
            Jet.xi(amb, 3) * VectorField.partial(amb, "xi", 2),
        }
        assert set(got) == expect and len(got) == 4

    def test_full_family_dimension_profile(self):
        spec = GradingSpec((), (1, 1, 0))
        real = FamilyRealization("W", spec)
        dims = [len(real.basis_of_degree(k, order=0)) for k in (-1, 0, 1, 2)]
        assert dims == [4, 10, 8, 2]
        assert sum(dims) == 24

    def test_divfree_polynomial_slice(self):
        spec = GradingSpec((1, 0), ())
        got = FamilyRealization("S", spec).basis_of_degree(-1, order=3)
        amb = Ambient(2, 0)
        expect = [Jet.x(amb, 2, r) * VectorField.partial(amb, "x", 1)
                  for r in range(4)]
        assert len(got) == 4
        real = FamilyRealization("S", spec)
        span_keys = {tuple(sorted(real.to_vec(v))) for v in got}
        expect_keys = {tuple(sorted(real.to_vec(v))) for v in expect}
        assert span_keys == expect_keys

    def test_divfree_closure(self):
        spec = GradingSpec((1, 1), (1, 1))
        real = FamilyRealization("S", spec)
        b0 = real.basis_of_degree(0, order=2)
        b1 = real.basis_of_degree(1, order=2)
        for X in b0:
            assert divergence(X).is_zero()
            for Y in b1:
                assert divergence(lie_bracket(X, Y)).is_zero()

    def test_one_even_exclusion(self):
        # with a single even generator the constant top-odd coefficient on
        # the even slot is excluded from the divergence-free family
        spec = GradingSpec((1,), (1, 1))
        real = FamilyRealization("S", spec)
        k = 2 - 1  # weighted degree of xi1*xi2 d/dx1
        got = real.basis_of_degree(k, order=3)
        amb = Ambient(1, 2)
        bad = (Jet(amb, {((0,), (1, 2)): F(1)})
               * VectorField.partial(amb, "x", 1))
        span = [real.to_vec(v) for v in got]
        from superrigid.linalg import span_reduce

        assert not span_reduce(span).contains(real.to_vec(bad))

    def test_laplacian_kernel_slice_and_closure(self):
        spec = GradingSpec((1, 1), (1, 1))
        real = FamilyRealization("SHO", spec)
        for k in (-1, 0, 1):
            basis = real.basis_of_degree(k, order=3)
            for f in basis:
                assert odd_laplacian(f).is_zero()
            for f in basis:
                for g in basis:
                    h = real.bracket(f, g)
                    assert odd_laplacian(h).is_zero()

    def test_laplacian_kernel_excludes_top(self):
        spec = GradingSpec((1, 1), (1, 1))
        real = FamilyRealization("SHO", spec)
        amb = Ambient(2, 2)
        top = Jet(amb, {((0, 0), (1, 2)): F(1)})
        k = 2 - 2
        got = real.basis_of_degree(k, order=2)
        from superrigid.linalg import span_reduce

        span = span_reduce([real.to_vec(v) for v in got])
        assert not span.contains(real.to_vec(top))
        assert odd_laplacian(top).is_zero()

    def test_beta_kernel_slice(self):
        spec = GradingSpec((0, 1), (0, -1, 0))
        real = FamilyRealization("SKO", spec, beta=F(1, 2))
        basis = real.basis_of_degree(1, order=3)
        assert basis
        for f in basis:
            assert div_beta(f, F(1, 2)).is_zero()
        mu = parse_jet(
            "x2 + x2*xi1*tau - 1/2*x2^2*xi1*xi2", real.ambient
        )
        from superrigid.linalg import span_reduce

        span = span_reduce([real.to_vec(v) for v in basis])
        assert span.contains(real.to_vec(mu))


# sha256 over repr of [sorted((key, Fraction(c)) for each key and coefficient
# of to_vec(x)) for x in basis_of_degree(k, 4)], for k = -2..2 in turn: the
# exact bases, in order, of one grading per family.  Each dropped key falls in
# a pinned degree: H's unit at -2, S(1|2)'s top field xi1*xi2*dx1 at 0, HO's
# and SHO's unit at -1 and SHO's top monomial xi1*xi2 at 0, and SKO's special
# monomials xi1*xi2 (beta = (n-2)/n = 0) at 0 and xi1*xi2*tau (beta = 1) at 2.
BASIS_DIGESTS = [
    ("W", (1,), (0,), None,
     "13b251db2472fce632ad0c3aece845001025a98f0033c3a0e94c75e174ff0bbe"),
    ("S", (1,), (0, 1), None,
     "217851f045607c16d7f6332c764688557e6d388b3a744644f38a8c26249d1479"),
    ("H", (1, 1), (1,), None,
     "932755e2a7b377ff3f22bfe873f9bb39b591fad66fa5855d872e4cabb6cac20d"),
    ("K", (2,), (1, 1), None,
     "749a7abac27aeaa73546f2faa57b3f1fa0b650d0bfd433f2818c102ac8e0c70d"),
    ("HO", (1, 0), (0, 1), None,
     "8887a75522b38ef308905fabf3c9cbc8853b427a16e2d84b916b9ca343e5c620"),
    ("SHO", (1, 0), (0, 1), None,
     "1f2cc1cec79e67a4d087a247f56a975abfb0abc300036b7469888e37853e0467"),
    ("KO", (1,), (1, 2), None,
     "6cdec68db9ed6df66995899727ec9029f8f7a9ad59299f2ef25aec06197100ad"),
    ("SKO", (1, 1), (1, 1, 2), 0,
     "737b90706dd642d49d31292d7e487b3a811e69170015762ad031582f132ce01f"),
    ("SKO", (1, 1), (1, 1, 2), 1,
     "7929ac12950d34e4b772da59af5c884fdfa81c6a8fcd050d628d4fe21877e9f8"),
]


@pytest.mark.parametrize("family, even, odd, beta, digest", BASIS_DIGESTS,
                         ids=[f"{r[0]}_beta_{r[3]}" if r[3] is not None
                              else r[0] for r in BASIS_DIGESTS])
def test_basis_digest(family, even, odd, beta, digest):
    real = FamilyRealization(family, GradingSpec(even, odd), beta)
    h = hashlib.sha256()
    for k in range(-2, 3):
        basis = real.basis_of_degree(k, 4)
        for x in basis:
            assert real.degrees(x) == {k}
            assert real.parity(x) in (0, 1)
        h.update(repr([sorted((key, F(c)) for key, c in real.to_vec(x).items())
                       for x in basis]).encode())
    assert h.hexdigest() == digest


class TestRealizationBasics:
    def test_parity_reversal(self):
        spec = GradingSpec((1, 1), (1, 1))
        f = Jet.x(Ambient(2, 2), 1)
        assert FamilyRealization("HO", spec).parity(f) == 1
        assert FamilyRealization("H", spec).parity(f) == 0

    def test_vec_roundtrip_field(self):
        spec = GradingSpec((1, 1), (1, 1))
        real = FamilyRealization("W", spec)
        rng = random.Random(4)
        X = random_field(real.ambient, rng)
        assert real.from_vec(real.to_vec(X)) == X

    def test_vec_roundtrip_jet(self):
        spec = GradingSpec((1, 1), (1, 1))
        real = FamilyRealization("HO", spec)
        rng = random.Random(5)
        f = random_jet(real.ambient, rng)
        assert real.from_vec(real.to_vec(f)).terms == f.terms

    def test_ambient_validation(self):
        with pytest.raises(ValueError):
            FamilyRealization("KO", GradingSpec((1, 1), (1, 1)))
        with pytest.raises(ValueError):
            FamilyRealization("SKO", GradingSpec((0, 1), (0, -1, 0)))
        with pytest.raises(ValueError):
            FamilyRealization("H", GradingSpec((1, 0, 0), (1,)))
        with pytest.raises(ValueError):
            FamilyRealization("nope", GradingSpec((1,), (1,)))

    @pytest.mark.parametrize("beta", ["1/0", True, "x"])
    def test_bad_beta_is_named(self, beta):
        with pytest.raises(ValueError, match="SKO's beta"):
            FamilyRealization("SKO", GradingSpec((0, 1), (0, -1, 0)),
                              beta=beta)

    def test_spec_is_named(self):
        # A pair of weight tuples raised a bare AttributeError.
        with pytest.raises(ValueError, match=re.escape(
                "spec must be a GradingSpec, got ((1,), ())")):
            FamilyRealization("W", ((1,), ()))

    @pytest.mark.parametrize("reader", ["to_vec", "degrees", "parity"])
    @pytest.mark.parametrize("family, spec, a, named", [
        ("W", GradingSpec((1,), ()), Jet.one(Ambient(1, 0)),
         "a VectorField on Ambient(1, 0)"),
        ("W", GradingSpec((1,), ()), VectorField.partial(A11, "x", 1),
         "a VectorField on Ambient(1, 0)"),
        ("H", GradingSpec((1, 1), ()),
         VectorField.partial(Ambient(2, 0), "x", 1), "a Jet on Ambient(2, 0)"),
    ], ids=["jet_for_field", "other_ambient", "field_for_jet"])
    def test_element_kind_is_checked(self, reader, family, spec, a, named):
        # A jet raised a bare AttributeError in to_vec and degrees, and
        # parity read the element's own parity whatever its kind.
        real = FamilyRealization(family, spec)
        with pytest.raises(ValueError,
                           match=re.escape(f"element must be {named}")):
            getattr(real, reader)(a)

    def test_shift_validation(self):
        with pytest.raises(ValueError):
            FamilyRealization("HO", GradingSpec((1, 0), (1, 1)))
