import random
import re
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, product
from math import comb, lcm
from typing import Callable, Sequence

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import conjugate, direct_sum, whole_as_int
from superrigid import catalog, walg
from superrigid.catalog import make
from superrigid.linalg import (
    Subspace,
    Vec,
    _accept,
    closure_under,
    nullspace,
    span_reduce,
    split_parity,
    vec_add,
    vec_parity,
)
from superrigid.walg import (
    FinSuperAlg,
    GradedLie,
    MultiLinMap,
    _bracket_flat,
    _key_parity,
    _merge,
    _sort_sign,
    check_admissible_findim,
    format_element,
    is_rigid,
    is_simple,
    left_mult_op,
    related_products,
    str_algebra,
    tkk,
    w_bracket,
)


def js02():
    return FinSuperAlg((0, 0), 0, {(0, 0): {1: 1}, (1, 1): {0: 1}},
                       labels=("a", "b"))


def sl2():
    # basis e, h, f with [e,f]=h, [h,e]=2e, [h,f]=-2f
    return FinSuperAlg.from_anticommutative(
        (0, 0, 0), 0,
        {(0, 2): {1: 1}, (1, 0): {0: 2}, (1, 2): {2: -2}},
        labels=("e", "h", "f"))


def lw02():
    # a even, abar odd; a.a=0, a.abar=abar, abar.abar=a
    return FinSuperAlg.from_anticommutative(
        (0, 1), 0, {(0, 1): {1: 1}, (1, 1): {0: 1}}, labels=("a", "abar"))


def rigidity_fixture():
    # commutative: a.a=b, a.b=a, b.b=0
    return FinSuperAlg((0, 0), 0, {(0, 0): {1: 1}, (0, 1): {0: 1}},
                       labels=("a", "b"))


def canonical_keys(n, arity, pars):
    for key in combinations_with_replacement(range(n), arity):
        if any(a == b and pars[a] for a, b in zip(key, key[1:])):
            continue
        yield key


def random_mlm(pars, arity, parity, rng, den=1):
    """Random map; den > 1 draws each denominator from 1..den."""
    entries = {}
    for key in canonical_keys(len(pars), arity, pars):
        base = sum(pars[i] for i in key) % 2
        for k in range(len(pars)):
            if (base + pars[k]) % 2 != parity:
                continue
            if rng.random() < 0.4:
                c = F(rng.randint(-3, 3))
                if c and den > 1:
                    c /= rng.randint(1, den)
                if c:
                    entries.setdefault(key, {})[k] = c
    return MultiLinMap(arity, parity, pars, entries)


def identity_op(pars):
    """The identity operator on the space with the given parities."""
    return MultiLinMap(1, 0, pars, {(i,): {i: F(1)} for i in range(len(pars))})


def wb(f: MultiLinMap, g: MultiLinMap) -> MultiLinMap:
    """w_bracket(f, g), which the library keeps flat, rebuilt into a map."""
    return MultiLinMap.from_vec(w_bracket(f, g), f.arity + g.arity - 1,
                                f.parities, (f.parity + g.parity) % 2)


# MultiLinMap.add and MultiLinMap.scale as the library once had them.  The
# library brackets flattened maps and needs neither; the tests' identities
# between maps do.

def mlm_add(f: MultiLinMap, other: MultiLinMap) -> MultiLinMap:
    if f.arity != other.arity or f.parities != other.parities:
        raise ValueError("shape mismatch")
    if not f.is_zero() and not other.is_zero() and f.parity != other.parity:
        raise ValueError("parity mismatch")
    parity = other.parity if f.is_zero() else f.parity
    ent = {k: dict(v) for k, v in f.entries.items()}
    for key, out in other.entries.items():
        slot = ent.setdefault(key, {})
        for k, c in out.items():
            s = slot.get(k, F(0)) + c
            if s:
                slot[k] = s
            else:
                slot.pop(k, None)
    ent = {k: v for k, v in ent.items() if v}
    return MultiLinMap(f.arity, parity, f.parities, ent)


def mlm_scale(f: MultiLinMap, c) -> MultiLinMap:
    c = F(c)
    if c == 0:
        return MultiLinMap(f.arity, f.parity, f.parities)
    ent = {key: {k: c * v for k, v in out.items()}
           for key, out in f.entries.items()}
    return MultiLinMap(f.arity, f.parity, f.parities, ent)


# ---------------------------------------------------------------------------
# Dense independent oracle for small even commutative algebras.  Bilinear maps
# are nested lists, operators dense matrices; closures by naive elimination.

def _rref(rows):
    basis = []
    for r in rows:
        r = list(r)
        for b in basis:
            piv = next(i for i, c in enumerate(b) if c)
            if r[piv]:
                f = r[piv]
                r = [x - f * y for x, y in zip(r, b)]
        if any(r):
            piv = next(i for i, c in enumerate(r) if c)
            f = r[piv]
            basis.append([x / f for x in r])
    return basis


def _in_span(v, basis):
    v = list(v)
    for b in basis:
        piv = next(i for i, c in enumerate(b) if c)
        if v[piv]:
            f = v[piv]
            v = [x - f * y for x, y in zip(v, b)]
    return not any(v)


def even_oracle(n, pairs):
    """Structure-operator dim, one-step orbit dim, full orbit dim for an even
    commutative algebra given by products on i <= j."""
    mult = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), out in pairs.items():
        for k, c in out.items():
            mult[i][j][k] = F(c)
            mult[j][i][k] = F(c)

    def mat_mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    def flat_mat(A):
        return [A[i][j] for i in range(n) for j in range(n)]

    def flat_bil(B):
        return [c for i in range(n) for j in range(i, n) for c in B[i][j]]

    ops = [[[mult[a][j][i] for j in range(n)] for i in range(n)]
           for a in range(n)]
    flat = _rref([flat_mat(M) for M in ops])
    changed = True
    while changed:
        changed = False
        for A in list(ops):
            for B in list(ops):
                AB, BA = mat_mul(A, B), mat_mul(B, A)
                C = [[AB[i][j] - BA[i][j] for j in range(n)]
                     for i in range(n)]
                fc = flat_mat(C)
                if any(fc) and not _in_span(fc, flat):
                    ops.append(C)
                    flat = _rref(flat + [fc])
                    changed = True
    mats = [[[row[i * n + j] for j in range(n)] for i in range(n)]
            for row in flat]

    def act_dense(M, B):
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                v1 = [sum(M[r][k] * B[i][j][k] for k in range(n))
                      for r in range(n)]
                v2 = [sum(M[k][i] * B[k][j][r] for k in range(n))
                      for r in range(n)]
                v3 = [sum(M[k][j] * B[i][k][r] for k in range(n))
                      for r in range(n)]
                out[i][j] = [a - b - c for a, b, c in zip(v1, v2, v3)]
        return out

    mu = [[list(mult[i][j]) for j in range(n)] for i in range(n)]
    one_step = [flat_bil(mu)] + [flat_bil(act_dense(M, mu)) for M in mats]
    one_dim = len(_rref(one_step))
    bils = [mu]
    bflat = _rref([flat_bil(mu)])
    changed = True
    while changed:
        changed = False
        for B in list(bils):
            for M in mats:
                C = act_dense(M, B)
                fc = flat_bil(C)
                if any(fc) and not _in_span(fc, bflat):
                    bils.append(C)
                    bflat = _rref(bflat + [fc])
                    changed = True
    return len(flat), one_dim, len(bflat)


class TestFinSuperAlg:
    def test_product_lookup_and_symmetry(self):
        J = js02()
        assert J.product(0, 0) == {1: F(1)}
        assert J.product(0, 1) == {}
        assert J.product(1, 0) == {}

    def test_odd_swap_sign(self):
        J = FinSuperAlg((1, 1), 1, {(0, 1): {0: 1}})
        assert J.product(1, 0) == {0: F(-1)}

    def test_odd_square_rejected(self):
        with pytest.raises(ValueError):
            FinSuperAlg((1,), 0, {(0, 0): {0: 1}})

    def test_parity_additivity_enforced(self):
        with pytest.raises(ValueError):
            FinSuperAlg((0, 1), 0, {(0, 0): {1: 1}})

    def test_contradictory_table_rejected(self):
        with pytest.raises(ValueError):
            FinSuperAlg((0, 0), 0, {(0, 1): {0: 1}, (1, 0): {0: 2}})

    def test_anticommutative_storage(self):
        L = lw02()
        # partner parities are flipped, product parity flipped
        assert L.parities == (1, 0)
        assert L.product_parity == 1
        assert L.anticommutative_presentation
        assert L.product(0, 1) == {1: F(1)}
        assert L.product(1, 1) == {0: F(-1)}

    def test_anticommutative_even_square_rejected(self):
        with pytest.raises(ValueError):
            FinSuperAlg.from_anticommutative((0,), 0, {(0, 0): {0: 1}})

    def test_anticommutativity_checked(self):
        with pytest.raises(ValueError):
            FinSuperAlg.from_anticommutative(
                (0, 0, 0), 0, {(0, 1): {2: 1}, (1, 0): {2: 1}})

    def test_output_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            FinSuperAlg((0,), 0, {(0, 0): {5: 1}})

    def test_anticommutative_input_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            FinSuperAlg.from_anticommutative((0, 0), 0, {(0, 5): {1: 1}})

    @pytest.mark.parametrize("k", [5, -1])
    def test_anticommutative_output_index_out_of_range(self, k):
        with pytest.raises(ValueError, match="out of range"):
            FinSuperAlg.from_anticommutative((0, 0), 0, {(0, 1): {k: 1}})

    def test_anticommutative_output_of_wrong_parity(self):
        # e0 e1 of even e0 and odd e1 under an even product must be odd.
        with pytest.raises(ValueError, match="wrong parity"):
            FinSuperAlg.from_anticommutative((0, 1), 0, {(0, 1): {0: 1}})
        with pytest.raises(ValueError, match="wrong parity"):
            FinSuperAlg.from_anticommutative((0, 1), 1, {(1, 0): {1: 1}})

    @pytest.mark.parametrize("c", [float("inf"), float("nan"), None, "x",
                                   True])
    def test_bad_coefficient_is_named(self, c):
        with pytest.raises(ValueError, match=r"product of 0,0 at 1"):
            FinSuperAlg((0, 0), 0, {(0, 0): {1: c}})
        with pytest.raises(ValueError, match=r"product of 0,1 at 0"):
            FinSuperAlg.from_anticommutative((0, 0), 0, {(0, 1): {0: c}})

    @pytest.mark.parametrize("parities, product_parity, table, named", [
        ((0, 1.5), 0, {}, "parity 1.5"),
        ((0, 2), 0, {}, "parity 2"),
        ((0, 0), 3, {}, "parity 3"),
        ((0, 0), 0, {("a", 0): {1: 1}}, "('a', 0)"),
        ((0, 0), 0, {(1.0, 0): {1: 1}}, "(1.0, 0)"),
        ((0, 0), 0, {(0, 0, 1): {1: 1}}, "(0, 0, 1)"),
        ((0, 0), 0, {(0, 1): {"a": 1}}, "'a'"),
        ((0, 0), 0, {(0, 1): {1.0: 1}}, "1.0"),
    ], ids=["parity 1.5", "parity 2", "product parity 3", "index a",
            "index 1.0", "3-tuple key", "output a", "output 1.0"])
    def test_bad_input_is_named(self, parities, product_parity, table,
                                named):
        """A parity other than 0 or 1, a table key that is not a pair of
        integers and an output index that is no integer raise the library's
        ValueError naming the value, in both presentations."""
        for build in (FinSuperAlg, FinSuperAlg.from_anticommutative):
            with pytest.raises(ValueError, match=re.escape(named)):
                build(parities, product_parity, table)

    def test_zero_coefficient_is_dropped(self):
        assert FinSuperAlg((0, 0), 0, {(0, 0): {1: "0"}}).table == {}
        J = FinSuperAlg((0, 0), 0, {(0, 0): {1: "0", 0: "1/2"}})
        assert J.table == {(0, 0): {0: F(1, 2)}}
        J = FinSuperAlg.from_anticommutative((0, 0), 0, {(0, 1): {0: "0"}})
        assert J.table == {}

    def test_mult_vec(self):
        J = js02()
        assert J.mult_vec({0: F(1), 1: F(1)}, {0: F(1)}) == {1: F(1)}
        # A zero coefficient adds nothing and leaves no zero entry.
        assert J.mult_vec({0: F(0), 1: F(1)}, {0: F(1), 1: F(1)}) == {0: F(1)}

    def test_mult_vec_swaps_odd_factors_with_a_sign(self):
        """The table keeps e_i e_j for i <= j only; e_j e_i is read from it,
        negated when both factors are odd."""
        J = FinSuperAlg((0, 1, 1), 0, {(1, 2): {0: 3}, (0, 1): {2: 1}})
        assert J.mult_vec({2: F(2)}, {1: F(1)}) == {0: F(-6)}
        assert J.mult_vec({1: F(1)}, {2: F(2)}) == {0: F(6)}
        assert J.mult_vec({1: F(1)}, {0: F(5)}) == {2: F(5)}
        for i in range(3):
            for j in range(3):
                assert J.mult_vec({i: F(1)}, {j: F(1)}) == J.product(i, j)

    def test_direct_sum(self):
        J = direct_sum(js02(), js02())
        assert J.dim == 4
        assert J.product(2, 2) == {3: F(1)}
        assert J.product(0, 2) == {}

    def test_format_element(self):
        J = js02()
        assert format_element(J, {}) == "0"
        assert format_element(J, {0: F(1), 1: F(-2)}) == "a - 2*b"


def _mirror(pars, i, j, out):
    """x_j x_i of an anticommutative product: -(-1)^{p_i p_j} x_i x_j."""
    sign = 1 if pars[i] and pars[j] else -1
    return {k: sign * c for k, c in out.items()}


@st.composite
def _anticommutative_tables(draw):
    """Parities of up to four basis vectors, a product parity and an
    anticommutative table on pairs i <= j, with outputs of the right parity:
    an even x_i has no square, an odd one may."""
    pars = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=4)))
    p = draw(st.integers(0, 1))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    table = {}
    for i, j in combinations_with_replacement(range(len(pars)), 2):
        ks = [k for k in range(len(pars))
              if pars[k] == (pars[i] + pars[j] + p) % 2]
        if (i < j or pars[i]) and ks:
            out = draw(st.dictionaries(st.sampled_from(ks), coeffs,
                                       max_size=2))
            if any(out.values()):
                table[(i, j)] = out
    return pars, p, table


class TestFromAnticommutative:
    """An anticommutative table builds one algebra whichever order each
    entry is given in, and a table that breaks anticommutativity is
    rejected in the anticommutative presentation's words."""

    @given(_anticommutative_tables(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_either_order_builds_one_algebra(self, tab, data):
        pars, p, table = tab
        J = FinSuperAlg.from_anticommutative(pars, p, table)
        flips = data.draw(st.lists(st.booleans(), min_size=len(table),
                                   max_size=len(table)))
        turned = dict(((j, i), _mirror(pars, i, j, out)) if flip
                      else ((i, j), out)
                      for ((i, j), out), flip in zip(table.items(), flips))
        both = {**table, **{(j, i): _mirror(pars, i, j, out)
                            for (i, j), out in table.items()}}
        for other in (turned, both):
            assert FinSuperAlg.from_anticommutative(pars, p, other) == J
        # The stored partner is e_i e_j = (-1)^{p_i} x_i x_j.
        for (i, j), out in table.items():
            tw = -1 if pars[i] else 1
            assert J.product(i, j) == {k: tw * c for k, c in out.items() if c}

    @given(_anticommutative_tables(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_broken_mirror_is_rejected(self, tab, data):
        pars, p, table = tab
        off = [key for key in table if key[0] != key[1]]
        assume(off)
        i, j = data.draw(st.sampled_from(off))
        mirror = _mirror(pars, i, j, table[(i, j)])
        wrong = data.draw(st.sampled_from([
            {k: 2 * c for k, c in mirror.items()}, {k: 0 for k in mirror}]))
        for broken in ({**table, (j, i): wrong}, {(j, i): wrong, **table}):
            with pytest.raises(ValueError, match="anticommut"):
                FinSuperAlg.from_anticommutative(pars, p, broken)

    @given(_anticommutative_tables(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_nonzero_even_square_is_rejected(self, tab, data):
        pars, p, table = tab
        spots = [(i, k) for i in range(len(pars)) if not pars[i]
                 for k in range(len(pars)) if pars[k] == p]
        assume(spots)
        i, k = data.draw(st.sampled_from(spots))
        c = data.draw(st.fractions(min_value=-3, max_value=3).filter(bool))
        with pytest.raises(ValueError, match="anticommut"):
            FinSuperAlg.from_anticommutative(pars, p,
                                             {**table, (i, i): {k: c}})

    def test_errors_are_worded_for_the_presentation(self):
        with pytest.raises(ValueError, match="products of 0,1 and 1,0 break "
                                             "anticommutativity"):
            FinSuperAlg.from_anticommutative(
                (0, 0, 0), 0, {(0, 1): {2: 1}, (1, 0): {2: 1}})
        with pytest.raises(ValueError, match="even basis vector 0 cannot have "
                                             "a nonzero square in an "
                                             "anticommutative product"):
            FinSuperAlg.from_anticommutative((0,), 0, {(0, 0): {0: 1}})
        # A product given as zero clashes with a nonzero mirror.
        for mirror in ({0: 2}, {0: 0}):
            with pytest.raises(ValueError, match="break supersymmetry"):
                FinSuperAlg((0, 0), 0, {(0, 1): {0: 1}, (1, 0): mirror})
        with pytest.raises(ValueError, match="odd basis vector 0 cannot have "
                                             "a nonzero square in a "
                                             "supersymmetric product"):
            FinSuperAlg((1,), 0, {(0, 0): {0: 1}})


class TestMultiLinMap:
    def test_reorder_sign(self):
        pars = (1, 1)
        B = MultiLinMap(2, 1, pars, {(0, 1): {0: 1}})
        assert B(0, 1) == {0: F(1)}
        assert B(1, 0) == {0: F(-1)}

    def test_odd_repeat_vanishes(self):
        pars = (1, 0)
        B = MultiLinMap(2, 1, pars, {(0, 1): {1: 1}})
        assert B(0, 0) == {}

    def test_unsorted_keys_are_canonicalised(self):
        pars = (1, 1, 0)
        B = MultiLinMap(2, 0, pars, {(1, 0): {2: 1}, (2, 0): {0: F(1, 2)}})
        assert B.entries == {(0, 1): {2: F(-1)}, (0, 2): {0: F(1, 2)}}
        # Entries given on both orders of one key add up, with the sign.
        C = MultiLinMap(2, 0, pars, {(0, 1): {2: 3}, (1, 0): {2: 3}})
        assert C.is_zero()
        D = MultiLinMap(2, 0, pars, {(0, 2): {1: 2}, (2, 0): {1: 1}})
        assert D.entries == {(0, 2): {1: F(3)}}
        # A whole entry is stored as an int, a proper one as a Fraction.
        assert all(type(c) is int for c in D.entries[(0, 2)].values())
        assert type(B.entries[(0, 2)][0]) is F

    def test_parity_check(self):
        with pytest.raises(ValueError):
            MultiLinMap(1, 0, (0, 1), {(0,): {1: 1}})

    @pytest.mark.parametrize("parity, parities, named", [
        (1.5, (0, 0), "1.5"), (2, (0, 0), "2"), (0, (0, 2), "2")])
    def test_bad_parity_is_named(self, parity, parities, named):
        """The map's parity and each basis parity must be 0 or 1: nothing
        is reduced mod 2 or kept as given."""
        with pytest.raises(ValueError,
                           match=re.escape(f"parity {named} is not 0 or 1")):
            MultiLinMap(1, parity, parities)

    def test_key_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            MultiLinMap(1, 0, (0,), {(3,): {0: 1}})

    def test_output_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            MultiLinMap(1, 0, (0,), {(0,): {3: 1}})

    @pytest.mark.parametrize("arity", [-1, 1.5, True, "1"])
    def test_bad_arity(self, arity):
        with pytest.raises(ValueError, match="arity"):
            MultiLinMap(arity, 0, (0,))

    @pytest.mark.parametrize("c", [float("inf"), float("nan"), None, "x",
                                   True])
    def test_bad_coefficient_is_named(self, c):
        with pytest.raises(ValueError, match=r"entry \(0,\)->0"):
            MultiLinMap(1, 0, (0,), {(0,): {0: c}})

    def test_zero_coefficient_is_dropped(self):
        assert MultiLinMap(1, 0, (0,), {(0,): {0: "0"}}).entries == {}
        assert MultiLinMap.vector({0: 0}, (0,)).is_zero()

    def test_vec_roundtrip(self):
        rng = random.Random(5)
        pars = (0, 1, 1, 0)
        f = random_mlm(pars, 2, 1, rng)
        g = MultiLinMap.from_vec(f.as_vec(), 2, pars, 1)
        assert f == g

    def test_vector_parity(self):
        v = MultiLinMap.vector({1: F(2)}, (0, 1))
        assert v.parity == 1
        with pytest.raises(ValueError):
            MultiLinMap.vector({0: F(1), 1: F(1)}, (0, 1))

    @pytest.mark.parametrize("v, pars", [({5: 1}, (0,)), ({-1: 1}, (0, 1)),
                                         ({"0": 1}, (0,)), ({0.0: 1}, (0,))])
    def test_vector_index_out_of_range(self, v, pars):
        with pytest.raises(ValueError, match="not a basis index"):
            MultiLinMap.vector(v, pars)


class TestBox:
    def test_operator_on_vector(self):
        # Inserting a vector into an operator is plain application, and a
        # vector has no slot to insert into.
        pars = (0, 0)
        f = MultiLinMap(1, 0, pars, {(0,): {1: 1}, (1,): {0: 2}})
        x = MultiLinMap.vector({0: F(1), 1: F(3)}, pars)
        assert _box_reference(f, x).entries == {(): {1: F(1), 0: F(6)}}
        assert _box_reference(x, f).is_zero()
        assert w_bracket(f, x) == {((), 1): F(1), ((), 0): F(6)}

    def test_product_bracket_vector_is_left_mult(self):
        J = js02()
        mu = J.mu
        a = MultiLinMap.vector({0: F(1)}, J.parities)
        m = wb(mu, a)
        assert m(0) == {1: F(1)}  # a*a = b
        assert m(1) == {}

    def test_arity_underflow(self):
        pars = (0,)
        x = MultiLinMap.vector({0: F(1)}, pars)
        with pytest.raises(ValueError, match="underflow"):
            w_bracket(x, x)

    def test_right_associativity_defect_symmetry(self):
        rng = random.Random(7)
        pars = (0, 1)
        for _ in range(40):
            aa = rng.choice([1, 2])
            ab, ac = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
            if ab + ac < 1:
                continue
            pa, pb, pc = (rng.randint(0, 1) for _ in range(3))
            a = random_mlm(pars, aa, pa, rng)
            b = random_mlm(pars, ab, pb, rng)
            c = random_mlm(pars, ac, pc, rng)
            box = _box_reference
            lhs = mlm_add(box(box(a, b), c), mlm_scale(box(a, box(b, c)), -1))
            rhs = mlm_add(box(box(a, c), b), mlm_scale(box(a, box(c, b)), -1))
            sign = -1 if (pb and pc) else 1
            assert mlm_add(lhs, mlm_scale(rhs, -sign)).is_zero()


# The library's insertion product before its entry-driven kernel, verbatim;
# the helper it called is the tests' canonical_keys.
_canonical_keys = canonical_keys


def _box_reference(f: MultiLinMap, g: MultiLinMap) -> MultiLinMap:
    """Insertion product: sum over shuffles of g into the first slot of f.

    A map with a arguments sits in degree a-1; the result lives in the degree
    sum, so two degree -1 maps underflow.
    """
    p, q = f.arity - 1, g.arity - 1
    if p + q < -1:
        raise ValueError("arity underflow: both operands are plain vectors")
    arity = p + q + 1
    parity = (f.parity + g.parity) % 2
    pars = f.parities
    if pars != g.parities:
        raise ValueError("operands live over different spaces")
    if f.arity == 0:
        return MultiLinMap(arity, parity, pars)
    entries: dict = {}
    n = len(pars)
    for key in _canonical_keys(n, arity, pars):
        argpars = tuple(pars[i] for i in key)
        acc: dict = {}
        for S in combinations(range(arity), g.arity):
            sgn = 1
            inS = set(S)
            for u in S:
                if argpars[u]:
                    for v in range(u):
                        if v not in inS and argpars[v]:
                            sgn = -sgn
            inner = g(*(key[i] for i in S))
            if not inner:
                continue
            rest = tuple(key[i] for i in range(arity) if i not in inS)
            for k, c in inner.items():
                for m, cm in f(k, *rest).items():
                    s = acc.get(m, F(0)) + sgn * c * cm
                    if s:
                        acc[m] = s
                    else:
                        acc.pop(m, None)
        if acc:
            entries[key] = acc
    return MultiLinMap(arity, parity, pars, entries)


KERNEL_PARITIES = {
    "even": (0, 0, 0),
    "even and odd": (0, 1),
    "odd": (1, 1, 1, 1),
    "mixed": (1, 0, 1, 0, 0),
}


def _shape(vec: Vec, pars) -> set:
    """The (arity, parity) of each key of a flattened map."""
    return {(len(args), _key_parity((args, m), pars)) for args, m in vec}


class TestBoxKernel:
    """The entry-driven w_bracket against the difference of two subset-sum
    insertion products, each summed over every canonical output key and
    every position subset."""

    @pytest.mark.parametrize("pars", KERNEL_PARITIES.values(),
                             ids=KERNEL_PARITIES)
    def test_matches_subset_sum_reference(self, pars):
        rng = random.Random(len(pars) * 10 + sum(pars))
        nonzero = 0
        for af in range(4):
            for ag in range(4):
                if af + ag == 0:
                    continue
                for pf, pg, _ in product((0, 1), (0, 1), range(3)):
                    f = random_mlm(pars, af, pf, rng, den=4)
                    g = random_mlm(pars, ag, pg, rng, den=4)
                    got = w_bracket(f, g)
                    want = _w_bracket_reference(f, g)
                    assert _shape(got, pars) <= {(want.arity, want.parity)}
                    assert got == want.as_vec()
                    nonzero += not want.is_zero()
        assert nonzero > 20

    def test_repeated_even_index_multiplicity(self):
        # Over even e0, e1 with mu(e0, e0) = e0 and g(e0, e0) = e1, inserting
        # mu into g at (e0, e0, e0) picks the inner pair in C(3, 2) = 3 ways,
        # and inserting g into mu gives mu(e1, e0) = 0.
        mu = MultiLinMap(2, 0, (0, 0), {(0, 0): {0: 1}})
        g = MultiLinMap(2, 0, (0, 0), {(0, 0): {1: 1}})
        assert _box_reference(g, mu).entries == {(0, 0, 0): {1: F(3)}}
        assert _box_reference(mu, g).is_zero()
        assert w_bracket(mu, g) == {((0, 0, 0), 1): F(-3)}
        assert w_bracket(mu, g) == _w_bracket_reference(mu, g).as_vec()

    def test_different_spaces(self):
        # Arity underflow is test_arity_underflow in TestBox.
        f = identity_op((0, 1))
        g = identity_op((0, 0))
        with pytest.raises(ValueError, match="different spaces"):
            w_bracket(f, g)

    def test_w_bracket_graded_antisymmetry(self):
        """w_bracket(v, u) = -(-1)^{|u||v|} w_bracket(u, v), as values; tkk's
        degree-one step and the admissibility chain check bracket each
        unordered pair once by it."""
        rng = random.Random(37)
        pars = (0, 1, 0, 1)
        for _ in range(30):
            au, av = rng.randint(1, 3), rng.randint(1, 3)
            pu, pv = rng.randint(0, 1), rng.randint(0, 1)
            u = random_mlm(pars, au, pu, rng, den=3)
            v = random_mlm(pars, av, pv, rng, den=3)
            sign = -1 if (pu and pv) else 1
            assert w_bracket(v, u) == {key: -sign * c
                                       for key, c in w_bracket(u, v).items()}


class TestWBracket:
    def test_super_anticommutativity(self):
        rng = random.Random(9)
        pars = (0, 1, 1)
        for _ in range(40):
            af, ag = rng.choice([0, 1, 2]), rng.choice([1, 2])
            pf, pg = rng.randint(0, 1), rng.randint(0, 1)
            f = random_mlm(pars, af, pf, rng)
            g = random_mlm(pars, ag, pg, rng)
            sign = -1 if (pf and pg) else 1
            assert mlm_add(wb(f, g), mlm_scale(wb(g, f), sign)).is_zero()

    def test_super_jacobi(self):
        rng = random.Random(13)
        pars = (0, 0, 1, 1)
        for _ in range(60):
            arities = [rng.choice([1, 2]), rng.choice([0, 1, 2]),
                       rng.choice([1, 2])]
            rng.shuffle(arities)
            if arities.count(0) > 1:
                continue
            ps = [rng.randint(0, 1) for _ in range(3)]
            f, g, h = (random_mlm(pars, a, p, rng)
                       for a, p in zip(arities, ps))
            lhs = wb(f, wb(g, h))
            rhs = wb(wb(f, g), h)
            sign = -1 if (ps[0] and ps[1]) else 1
            rhs = mlm_add(rhs, mlm_scale(wb(g, wb(f, h)), sign))
            assert mlm_add(lhs, mlm_scale(rhs, -1)).is_zero()

    def test_matches_operator_superbracket(self):
        rng = random.Random(17)
        pars = (0, 1)
        for _ in range(20):
            pf, pg = rng.randint(0, 1), rng.randint(0, 1)
            f = random_mlm(pars, 1, pf, rng)
            g = random_mlm(pars, 1, pg, rng)
            br = wb(f, g)
            sign = -1 if (pf and pg) else 1
            for i in range(2):
                direct = {}
                for k, c in g(i).items():
                    for m, cm in f(k).items():
                        direct[m] = direct.get(m, F(0)) + c * cm
                for k, c in f(i).items():
                    for m, cm in g(k).items():
                        direct[m] = direct.get(m, F(0)) - sign * c * cm
                direct = {k: c for k, c in direct.items() if c}
                assert br(i) == direct

    def test_odd_self_bracket_is_twice_square(self):
        rng = random.Random(19)
        pars = (0, 1)
        f = random_mlm(pars, 2, 1, rng)
        assert wb(f, f) == mlm_scale(_box_reference(f, f), 2)


def _w_bracket_reference(f: MultiLinMap, g: MultiLinMap) -> MultiLinMap:
    """The graded commutator as two subset-sum insertion products, scaled
    and added as maps."""
    sign = -1 if (f.parity and g.parity) else 1
    return mlm_add(_box_reference(f, g), mlm_scale(_box_reference(g, f), -sign))


def _fresh(m: MultiLinMap) -> MultiLinMap:
    """A copy of m with no kernel table built yet."""
    return MultiLinMap(m.arity, m.parity, m.parities, m.entries)


@st.composite
def _maps(draw, pars, arity, parity):
    """A homogeneous map with a few fractional entries, or none."""
    slots = [(key, k) for key in canonical_keys(len(pars), arity, pars)
             for k in range(len(pars))
             if (sum(pars[i] for i in key) + pars[k]) % 2 == parity]
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    vec = draw(st.dictionaries(st.sampled_from(slots), coeffs, max_size=8)
               if slots else st.just({}))
    return MultiLinMap.from_vec(vec, arity, pars, parity)


@st.composite
def _map_pairs(draw):
    pars = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=3)))
    f, g = (draw(_maps(pars, draw(st.integers(0, 3)), draw(st.integers(0, 1))))
            for _ in range(2))
    return f, g


class TestWBracketMerge:
    """w_bracket sums both insertions into one accumulator, in place of two
    insertion products added and scaled as maps."""

    @given(_map_pairs())
    @settings(max_examples=200, deadline=None)
    def test_matches_add_scale_reference(self, fg):
        f, g = fg
        other = MultiLinMap(1, 0, g.parities + (0,))
        for a, b in ((f, g), (g, f), (f, f)):
            with pytest.raises(ValueError, match="different spaces"):
                w_bracket(a, other)
            if a.arity + b.arity == 0:
                with pytest.raises(ValueError, match="underflow"):
                    w_bracket(a, b)
                continue
            want = _w_bracket_reference(_fresh(a), _fresh(b))
            got = w_bracket(a, b)
            assert _shape(got, a.parities) <= {(want.arity, want.parity)}
            assert got == want.as_vec()
            if a is b and not a.parity:
                assert not got

    def test_even_self_bracket_cancels(self):
        rng = random.Random(43)
        pars = (0, 1, 1)
        for arity in (1, 2, 3):
            f = random_mlm(pars, arity, 0, rng, den=3)
            while _box_reference(f, f).is_zero():
                f = random_mlm(pars, arity, 0, rng, den=3)
            assert not w_bracket(f, f)
            assert w_bracket(f, f) == _w_bracket_reference(f, f).as_vec()

    def test_kept_tables_match_fresh_copies(self):
        """act and w_bracket give the same values on operands that have
        already been tabled, in either position, as on fresh copies, and
        leave their operands unchanged."""
        rng = random.Random(47)
        pars = (0, 1, 0, 1)
        for _ in range(8):
            f = random_mlm(pars, 1, rng.randint(0, 1), rng, den=3)
            B = random_mlm(pars, 2, rng.randint(0, 1), rng, den=3)
            g = random_mlm(pars, rng.randint(0, 3), rng.randint(0, 1), rng,
                           den=3)
            before = [{k: dict(v) for k, v in m.entries.items()}
                      for m in (f, B, g)]
            calls = [(w_bracket, f, B), (w_bracket, B, f),
                     (w_bracket, f, g), (w_bracket, g, f),
                     (w_bracket, B, g), (w_bracket, g, B),
                     (w_bracket, f, f), (act, f, B)]
            for _ in range(2):
                for op, a, b in calls:
                    assert op(a, b) == op(_fresh(a), _fresh(b))
            assert [m.entries for m in (f, B, g)] == before


def test_w_bracket_builds_no_map(monkeypatch):
    """w_bracket returns the flattened bracket and builds no map, on fresh
    operands and on operands it has already tabled."""
    rng = random.Random(59)
    pars = (0, 1, 0, 1)
    f = random_mlm(pars, 2, 0, rng, den=3)
    g = random_mlm(pars, 3, 1, rng, den=3)
    want = _w_bracket_reference(f, g).as_vec()
    assert want

    def refuse(*args, **kwargs):
        raise AssertionError("w_bracket built a map")
    monkeypatch.setattr(MultiLinMap, "__init__", refuse)
    for _ in range(2):
        assert w_bracket(f, g) == want


def test_each_map_is_tabled_once(monkeypatch):
    """Over tkk(JS_0_8, 4) and its admissibility check, every map is tabled
    at most once, however many partners it meets: Str's closure, R's
    closure, the one-step orbit and w_bracket all read the one table."""
    maps = []

    def counted(m, build=walg._tables):
        maps.append(m)  # keeps m alive, so ids stay distinct
        return build(m)
    monkeypatch.setattr(walg, "_tables", counted)
    G = tkk(make("JS_0_8").algebra, 4)
    assert check_admissible_findim(G).admissible
    assert maps
    assert len({id(m) for m in maps}) == len(maps)
    assert {m.arity for m in maps} == {0, 1, 2}


def test_common_denominator_is_kept(monkeypatch):
    """A map's common denominator is computed on first use and kept in its
    table: once w_bracket has met f and g, each further bracket computes one
    common denominator, that of its flattened right operand, and none of its
    left one."""
    rng = random.Random(53)
    pars = (0, 1, 0, 1)
    f = random_mlm(pars, 2, 0, rng, den=4)
    g = random_mlm(pars, 1, 1, rng, den=4)
    want = [w_bracket(f, g), w_bracket(g, f)]
    for m in (f, g):
        assert m._tabs[0] == lcm(*(c.denominator for out in m.entries.values()
                                   for c in out.values()))
    assert {m._tabs[0] for m in (f, g)} != {1}
    seen = []

    def counted(*dens):
        seen.append(len(dens))
        return lcm(*dens)
    monkeypatch.setattr(walg, "lcm", counted)
    assert [w_bracket(f, g), w_bracket(g, f)] == want
    assert seen == [len(g.as_vec()), len(f.as_vec())]


def act(f: MultiLinMap, B: MultiLinMap) -> MultiLinMap:
    """The action of an operator on a binary product, as a map: the kernel
    on B's flattened entries, rebuilt."""
    return MultiLinMap.from_vec(_bracket_flat(f, B.as_vec()), 2, f.parities,
                                (f.parity + B.parity) % 2)


class TestAct:
    def test_identity_acts_as_minus_mu(self):
        J = js02()
        mu = J.mu
        out = act(identity_op(J.parities), mu)
        assert out == mlm_scale(mu, -1)

    def test_zero_operator(self):
        J = js02()
        z = MultiLinMap(1, 0, J.parities)
        assert act(z, J.mu).is_zero()

    def test_agrees_with_w_bracket(self):
        rng = random.Random(23)
        pars = (0, 0, 1, 1)
        for _ in range(25):
            pf, pb = rng.randint(0, 1), rng.randint(0, 1)
            f = random_mlm(pars, 1, pf, rng)
            B = random_mlm(pars, 2, pb, rng)
            assert act(f, B) == wb(f, B)


@pytest.mark.parametrize("name", ["JS_0_8", "LW_0_2"])
def test_act_agrees_with_w_bracket_on_str(name):
    J = make(name).algebra
    mu = J.mu
    # A row of mixed parity would fail the parity check.
    ops = [MultiLinMap.from_vec(row, 1, J.parities)
           for row in str_algebra(J).rows]
    assert {f.parity for f in ops} == {0, 1}
    for f in ops:
        assert act(f, mu) == wb(f, mu)


def _vsum(vecs):
    out = {}
    for v in vecs:
        out = vec_add(out, v)
    return out


def _reference_on_parts(f: MultiLinMap, v: Vec) -> Vec:
    """The test-side reference bracket of f with each homogeneous part of a
    flattened v of one arity, summed."""
    pars = f.parities
    out: Vec = {}
    for part, p in split_parity(v, lambda key: _key_parity(key, pars)):
        g = MultiLinMap.from_vec(part, len(next(iter(part))[0]), pars, p)
        out = vec_add(out, _w_bracket_reference(_fresh(f), g).as_vec())
    return out


@pytest.mark.parametrize("op, arity_v", [("act", 2), ("w_bracket", 1)])
def test_lift_on_mixed_parity_arguments(op, arity_v):
    """The closures' unary lifts v -> w_bracket(f, v) for an operator f, the
    action on products (R's closure) and the bracket of operators (Str's),
    take each entry's own parity and so sum the reference bracket over the
    homogeneous parts of a mixed-parity v.  The odd indices allow odd
    squares, which the action's lift must skip."""
    rng = random.Random(31)
    pars = (0, 1, 0, 1, 1)
    for _ in range(10):
        gs = [random_mlm(pars, arity_v, p, rng, den=4) for p in (0, 1)]
        v = _vsum(g.as_vec() for g in gs)
        assert {p for _, p in split_parity(
            v, lambda key: _key_parity(key, pars))} == {0, 1}
        for p in (0, 1):
            f = random_mlm(pars, 1, p, rng, den=4)
            assert _bracket_flat(f, v) == _reference_on_parts(f, v), op


@st.composite
def _mixed_pairs(draw):
    """A homogeneous map f and a flattened v of mixed parity, each of arity
    0 to 3 and not both of arity 0."""
    pars = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=3)))
    af, av = draw(st.tuples(st.integers(0, 3), st.integers(0, 3))
                  .filter(lambda a: a != (0, 0)))
    f = draw(_maps(pars, af, draw(st.integers(0, 1))))
    v = _vsum(draw(_maps(pars, av, p)).as_vec() for p in (0, 1))
    return f, v


class TestBracketFlat:
    """The kernel is the test-side reference bracket summed over the
    homogeneous parts of a flattened v, for maps f and vectors v of any
    arities and parities."""

    @given(_mixed_pairs())
    @settings(max_examples=200, deadline=None)
    def test_sums_w_bracket_over_homogeneous_parts(self, fv):
        f, v = fv
        want = _reference_on_parts(f, v)
        assert _bracket_flat(f, v) == want
        assert _bracket_flat(f, v) == want  # through f's kept table
        assert whole_as_int(_bracket_flat(f, v))
        assert _bracket_flat(f, {}) == {}

    def test_whole_entries_are_ints(self):
        """Each entry is an int when the common denominator divides it and
        a Fraction otherwise; whole tables give ints throughout."""
        rng = random.Random(67)
        pars = (0, 1, 0, 1)
        kinds = set()
        for _ in range(10):
            f = random_mlm(pars, 1, rng.randint(0, 1), rng, den=4)
            g = random_mlm(pars, 2, rng.randint(0, 1), rng, den=4)
            out = _bracket_flat(f, g.as_vec())
            assert whole_as_int(out)
            kinds |= {type(c) for c in out.values()}
        assert kinds == {int, F}
        J = make("JS_0_8").algebra
        mu = J.mu
        for i in range(J.dim):
            out = _bracket_flat(left_mult_op(J, i), mu.as_vec())
            assert out and all(type(c) is int for c in out.values())

    def test_operator_on_itself(self):
        rng = random.Random(61)
        pars = (0, 1, 1)
        for pf in (0, 1):
            f = random_mlm(pars, 1, pf, rng, den=4)
            assert _bracket_flat(f, f.as_vec()) == _reference_on_parts(
                f, f.as_vec())


@st.composite
def _merge_runs(draw):
    """Two canonical keys over a few indices, so that even and odd indices
    repeat across the two runs and even ones within a run."""
    pars = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=4)))
    runs = []
    for _ in range(2):
        key = sorted(draw(st.lists(st.integers(0, len(pars) - 1), max_size=4)))
        runs.append(tuple(k for i, k in enumerate(key)
                          if not (pars[k] and i and key[i - 1] == k)))
    return pars, runs[0], runs[1]


@given(_merge_runs())
@settings(max_examples=400, deadline=None)
def test_merge_matches_sort_sign(runs):
    """_merge(A, B) is the key and sign _sort_sign gives A + B, times the
    even multiplicity, the product of C(m_A(x) + m_B(x), m_B(x)); a sign of
    0 means an odd index is in both runs."""
    pars, A, B = runs
    sign, key = _sort_sign(A + B, pars)
    weight = 1
    for x in set(A) | set(B):
        weight *= comb(A.count(x) + B.count(x), B.count(x))
    s, got = _merge(A, B, pars)
    assert s == sign * weight
    if s:
        assert got == key


@pytest.mark.parametrize("run", [is_rigid, lambda J: tkk(J, 2)],
                         ids=["is_rigid", "tkk"])
def test_generators_are_built_once(monkeypatch, run):
    """is_rigid and tkk close Str and R from one build of the left
    multiplications and their maps, so each map is tabled once."""
    J = make("JS_0_8").algebra
    built, tabled = [], []
    monkeypatch.setattr(walg, "left_mult_op",
                        lambda J, a, f=walg.left_mult_op: built.append(a) or f(J, a))
    monkeypatch.setattr(walg, "_tables",
                        lambda m, f=walg._tables: tabled.append(m) or f(m))
    run(J)
    assert sorted(built) == list(range(J.dim))
    assert len({id(m) for m in tabled}) == len(tabled)


def test_str_algebra_builds_no_map_per_step(monkeypatch):
    """str_algebra builds a map of each left multiplication, which both
    closures use as it is, and none while it closes."""
    J = make("JS_0_8").algebra
    built = []
    init = MultiLinMap.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(MultiLinMap, "__init__", counted)
    assert str_algebra(J).dim == 20
    assert len(built) == J.dim
    assert walg._str_generators(J)[1] == built


def test_product_map_is_built_once():
    J = make("JS_0_8").algebra
    assert J.mu is J.mu
    assert J.mu == MultiLinMap(2, J.product_parity, J.parities, J.table)


def test_only_left_operands_become_maps(monkeypatch):
    """Over tkk(JS_0_8, 4) and its admissibility check every map built is
    tabled: right operands stay flattened, and the product map is built
    once for R's seed, the one-step orbit and the degree-zero seeds."""
    J = make("JS_0_8").algebra
    built, tabled = [], []
    init = MultiLinMap.__init__

    def counted(self, *args, **kwargs):
        built.append(self)  # keeps each map alive, so ids stay distinct
        init(self, *args, **kwargs)
    monkeypatch.setattr(MultiLinMap, "__init__", counted)
    monkeypatch.setattr(walg, "_tables",
                        lambda m, f=walg._tables: tabled.append(m) or f(m))
    assert check_admissible_findim(tkk(J, 4)).admissible
    assert built
    assert {id(m) for m in built} <= {id(m) for m in tabled}


def _permuted(J, seed):
    perm = list(range(J.dim))
    random.Random(seed).shuffle(perm)
    parities = [0] * J.dim
    for i, p in enumerate(J.parities):
        parities[perm[i]] = p
    table = {(perm[i], perm[j]): {perm[k]: c for k, c in out.items()}
             for (i, j), out in J.table.items()}
    return FinSuperAlg(parities, J.product_parity, table,
                       anticommutative_presentation=J.anticommutative_presentation)


FINITE = sorted(row["name"] for row in catalog.registry_listing()
                if row["kind"] == "finite")


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
@pytest.mark.parametrize("name", FINITE)
def test_degree_zero_seeds_span_str_generators(name, seed):
    """[e_i, mu] = +-L_i, so the degree-zero seeds of check_admissible_findim
    span exactly Str's generators, on every finite entry and relabelled
    copies of it."""
    J = make(name).algebra
    if seed is not None:
        J = _permuted(J, seed)
    units = [MultiLinMap.vector({i: F(1)}, J.parities) for i in range(J.dim)]
    seeds = span_reduce([w_bracket(e, J.mu) for e in units])
    assert seeds == walg._str_generators(J)[0]


def test_str_is_closed_once_per_algebra(monkeypatch):
    """is_rigid, tkk and check_admissible_findim on one algebra read Str and
    R from its memo: two closures in all, and one Str object."""
    J = make("JS_0_8").algebra
    closed = []
    monkeypatch.setattr(walg, "closure_under",
                        lambda *a, f=walg.closure_under: closed.append(a)
                        or f(*a))
    assert is_rigid(J).rigid
    assert check_admissible_findim(tkk(J, 4)).admissible
    assert len(closed) == 2
    assert str_algebra(J) is str_algebra(J)


def _stabiliser_count(J):
    """(dim Str, dim stab, mu outside [Str, mu], dim orbit): stab = {D in
    Str : [D, mu] = 0}, the kernel of D -> [mu, D] over Str's homogeneous
    rows, as [D, mu] = -(-1)^{|D||mu|} [mu, D]."""
    mu = J.mu
    S = str_algebra(J)
    stab = nullspace(range(S.dim), lambda j: _bracket_flat(mu, S.rows[j]))
    brackets = span_reduce([_bracket_flat(mu, row) for row in S.rows])
    orbit = walg._one_step_orbit(mu, S)
    return S.dim, len(stab), not brackets.contains(mu.as_vec()), orbit.dim


def _derivations(J):
    """Der(J), the kernel of D -> [D, mu] over all n^2 operators, as the
    kernels of D -> [mu, D] over the even and the odd ones."""
    mu, pars, n = J.mu, J.parities, J.dim
    return [nullspace([((k,), m) for k in range(n) for m in range(n)
                       if pars[k] ^ pars[m] == p],
                      lambda key: _bracket_flat(mu, {key: F(1)}))
            for p in (0, 1)]


# name: (dim stab, mu outside [Str, mu], (even, odd) dims of Der(J))
STABILISERS = {
    "JS_0_2": (0, True, (0, 0)),
    "LW_0_2": (0, False, (0, 0)),
    "JW_0_4": (2, False, (1, 1)),
    "JS_0_8": (5, True, (3, 2)),
    "JS_0_16": (0, False, (1, 0)),
    "JW_0_8": (1, False, (1, 0)),
}


@pytest.mark.parametrize("name", STABILISERS)
def test_orbit_dimension_by_rank_nullity(name):
    """dim orbit = dim Str - dim stab + [mu not in [Str, mu]], with the
    stabiliser in Str computed apart from the closures.  JW_0_8's one
    stabilising operator is why its orbit is 23 of R's 24."""
    dim_str, stab, outside, orbit = _stabiliser_count(make(name).algebra)
    assert (stab, outside) == STABILISERS[name][:2]
    assert orbit == dim_str - stab + outside


@pytest.mark.parametrize("name", STABILISERS)
def test_derivations(name):
    """Der(J) has the pinned superdimension, and lies inside Str on every
    finite entry but JS_0_16: its one even derivation is, modulo Str, -4/3
    times the identity on the eight basis vectors xi^I*dxi2, I in {3,4,5},
    and zero on the xi^I*dxi1."""
    J = make(name).algebra
    even, odd = _derivations(J)
    assert (len(even), len(odd)) == STABILISERS[name][2]
    S = str_algebra(J)
    outside = [S.reduce(D) for D in even + odd if not S.contains(D)]
    if name != "JS_0_16":
        assert outside == []
        return
    dxi2 = [k for k, label in enumerate(J.labels) if label.endswith("dxi2")]
    assert len(dxi2) == 8
    assert outside == [{((k,), k): F(-4, 3) for k in dxi2}]


# name: (dim R0, dim T, dim of R0 + T), R0 the part of R with mu's parity and
# T = [gl(V)_0, mu] + Q mu the tangent of mu's orbit under every even change
# of basis
EVEN_ORBIT = {
    "JS_0_2": (4, 4, 4),
    "LW_0_2": (2, 2, 2),
    "JW_0_4": (4, 7, 7),
    "JS_0_8": (8, 29, 29),
    "JS_0_16": (24, 127, 127),
    "JW_0_8": (12, 31, 32),
}


@pytest.mark.parametrize("name", EVEN_ORBIT)
def test_even_orbit_tangent(name):
    """R0 lies in T on the five rigid entries.  On JW_0_8 it does not, so no
    even operator algebra, Str plus Der(J) included, makes JW_0_8 rigid on
    the part of R with mu's parity."""
    J = make(name).algebra
    mu, pars, n = J.mu, J.parities, J.dim
    r0 = span_reduce([part for row in related_products(J).rows
                      for part, p in split_parity(
                          row, lambda key: _key_parity(key, pars))
                      if p == mu.parity])
    T = span_reduce([mu.as_vec()] + [
        _bracket_flat(mu, {((k,), m): F(1)})
        for k in range(n) for m in range(n) if pars[k] == pars[m]])
    both = span_reduce(r0.rows + T.rows)
    assert (r0.dim, T.dim, both.dim) == EVEN_ORBIT[name]
    assert all(T.contains(v) for v in r0.rows) == (name != "JW_0_8")


def _invariants(J):
    """is_rigid's (rigid, dim Str, dim R), is_simple, tkk(J, 4).dims and the
    rank-nullity count."""
    rep = is_rigid(J)
    return ((rep.rigid, rep.dim_str, rep.dim_r), is_simple(J).simple,
            tkk(J, 4).dims, _stabiliser_count(J))


def _row_parities(space: Subspace, pars) -> list:
    """The parity of each row of a space of flattened maps, None for a row
    that mixes parities."""
    return [vec_parity(row, lambda key: _key_parity(key, pars))
            for row in space.rows]


@pytest.mark.parametrize("name, seed", [(name, None) for name in FINITE] + [
    (name, seed) for name in ("JS_0_2", "LW_0_2", "JW_0_4", "JS_0_8", "JW_0_8")
    for seed in (1, 2, 3)])
def test_graded_spaces_have_homogeneous_rows(name, seed):
    """Str, R and every tkk component are graded superspaces, so each row of
    their reduced echelon bases is homogeneous, and the kernel brackets the
    rows as they are: on the six finite entries, and on even conjugates
    (density 0.3) of the five small ones."""
    J = make(name).algebra
    if seed is not None:
        J = conjugate(J, random.Random(seed), 0.3)
    G = tkk(J, 4)
    spaces = [str_algebra(J), related_products(J)] + [
        G.components[k] for k in sorted(G.components) if k >= 0]
    for space in spaces:
        assert None not in _row_parities(space, J.parities)


def test_admissible_check_refuses_a_mixed_row():
    """A component with a row of mixed parity is no graded space: the check
    makes each left row a map, whose parity check raises."""
    J = make("JW_0_4").algebra
    G = tkk(J, 4)
    rows = dict(zip(_row_parities(G.components[1], J.parities),
                    G.components[1].rows))
    G.components[1] = span_reduce([vec_add(rows[0], rows[1])])
    assert _row_parities(G.components[1], J.parities) == [None]
    with pytest.raises(ValueError, match="wrong parity"):
        check_admissible_findim(G)


@pytest.mark.parametrize("name",
                         ["JS_0_2", "LW_0_2", "JW_0_4", "JS_0_8", "JW_0_8"])
def test_even_basis_change_keeps_every_invariant(name):
    """An even change of basis gives an isomorphic algebra, most often with
    a table that is not monomial, so every verdict and dimension is
    unchanged at seeds 1-3; JW_0_8 still fails, 24 of 24."""
    J = make(name).algebra
    want = _invariants(J)
    for seed in (1, 2, 3):
        C = conjugate(J, random.Random(seed), 0.3)
        assert _invariants(C) == want, seed
    if name == "JW_0_8":
        assert want[0] == (False, 24, 24)


def _lifted(op, arity_u, arity_v, pars):
    """op on maps as a bilinear map of homogeneous flattened maps, zero on
    other arities."""
    def lifted(u, v):
        if len(next(iter(u))[0]) != arity_u or len(next(iter(v))[0]) != arity_v:
            return {}
        f = MultiLinMap.from_vec(u, arity_u, pars)
        g = MultiLinMap.from_vec(v, arity_v, pars)
        return op(f, g).as_vec()
    return lifted


# The library's closure_under before its maps became unary, verbatim.
def _closure_reference(
    seed: Subspace,
    maps: Sequence[Callable[[Vec, Vec], Vec]],
    partners: Subspace | None = None,
) -> Subspace:
    """Smallest subspace containing seed and closed under each bilinear map
    with a partner in either slot.

    With partners given, m(p, v) and m(v, p) lie in the result for each map
    m, each basis row p of partners and each v in the result.  With
    partners=None the partners are the result itself, so m(a, b) lies in it
    for all a, b in it: the Lie-subalgebra closure when m is a bracket.

    A worklist starts with the seed rows.  Each popped vector v meets every
    partner p as m(p, v) and m(v, p), once if p is v, and the remainder of
    each value outside the span so far joins the span and the worklist.  With
    partners=None the partners of v are the vectors popped before it and v
    itself, so each unordered pair is met once.  The returned span is
    canonical, so the visiting order does not change it.
    """
    rows = dict(seed._by_pivot)
    queue = list(seed.rows)
    for i, v in enumerate(queue):  # the queue grows while it is walked
        for m in maps:
            for p in queue[:i + 1] if partners is None else partners.rows:
                for a, b in [(p, v)] if p is v else [(p, v), (v, p)]:
                    r = _accept(rows, m(a, b))
                    if r:
                        queue.append(r)
    return Subspace(rows)


SHORTCUT_CASES = {name: make(name).algebra
                  for name in ("JW_0_4", "JS_0_8", "JW_0_8")}
SHORTCUT_CASES["JW_0_8 permuted"] = _permuted(SHORTCUT_CASES["JW_0_8"], 5)


@pytest.mark.parametrize("J", SHORTCUT_CASES.values(), ids=SHORTCUT_CASES)
class TestGeneratorShortcut:
    """Str and R from the left multiplications alone equal the reference
    closures against the whole growing span and against the whole of Str."""

    def test_related_products_under_all_of_str(self, J):
        pars = J.parities
        S = str_algebra(J)
        R = _closure_reference(span_reduce([J.mu.as_vec()]),
                               [_lifted(act, 1, 2, pars)], S)
        assert R == related_products(J)

    def test_str_as_full_lie_closure(self, J):
        pars = J.parities
        gens = span_reduce([left_mult_op(J, i).as_vec() for i in range(J.dim)])
        S = _closure_reference(gens, [_lifted(wb, 1, 1, pars)])
        assert S == str_algebra(J)


class TestLeftMult:
    def test_js02(self):
        m = left_mult_op(js02(), 0)
        assert m(0) == {1: F(1)}
        assert m(1) == {}

    def test_unital(self):
        # e unit: e.e=e, e.x=x, x.x=0
        J = FinSuperAlg((0, 0), 0, {(0, 0): {0: 1}, (0, 1): {1: 1}})
        assert left_mult_op(J, 0) == identity_op(J.parities)

    def test_lw02_stored(self):
        m = left_mult_op(lw02(), 0)
        assert m(0) == {}
        assert m(1) == {1: F(1)}

    @pytest.mark.parametrize("a", [5, -1, True, 1.0, {0: F(1)}])
    def test_index_out_of_range(self, a):
        # Only a basis index names a multiplier: not a bool, a float or a
        # vector.
        with pytest.raises(ValueError, match=re.escape(f"index {a!r} ")):
            left_mult_op(js02(), a)


class TestStrAndRelated:
    def test_js02_dims(self):
        J = js02()
        assert str_algebra(J).dim == 3
        assert related_products(J).dim == 4

    def test_oracle_cross_check_js02(self):
        s, one, r = even_oracle(2, {(0, 0): {1: 1}, (1, 1): {0: 1}})
        assert (s, one, r) == (3, 4, 4)

    def test_one_dim_idempotent(self):
        J = FinSuperAlg((0,), 0, {(0, 0): {0: 1}})
        assert str_algebra(J).dim == 1

    def test_lw02_str_dim(self):
        assert str_algebra(lw02()).dim == 4

    def test_sl2_related_is_a_line(self):
        assert related_products(sl2()).dim == 1

    def test_zero_product(self):
        J = FinSuperAlg((0, 1), 0, {})
        assert str_algebra(J).dim == 0
        assert related_products(J).dim == 0


class TestRigidity:
    def test_js02_rigid(self):
        rep = is_rigid(js02())
        assert rep.rigid and not rep.degenerate
        assert (rep.dim_str, rep.dim_r) == (3, 4)

    def test_sl2_rigid(self):
        rep = is_rigid(sl2())
        assert rep.rigid
        assert (rep.dim_str, rep.dim_r) == (3, 1)

    def test_lw02_rigid(self):
        assert is_rigid(lw02()).rigid

    def test_fixture_not_rigid(self):
        # frozen from the dense oracle: operators close to all of gl_2 while
        # the orbit of the product exceeds the one-step span
        rep = is_rigid(rigidity_fixture())
        assert not rep.rigid
        assert (rep.dim_str, rep.dim_r) == (4, 6)
        assert rep.witness is not None
        assert rep.r_space.contains(rep.witness.as_vec())

    def test_fixture_oracle_cross_check(self):
        s, one, r = even_oracle(2, {(0, 0): {1: 1}, (0, 1): {0: 1}})
        assert (s, one, r) == (4, 4, 6)
        assert one != r

    def test_degenerate(self):
        rep = is_rigid(FinSuperAlg((0, 0), 0, {}))
        assert rep.rigid and rep.degenerate
        assert (rep.dim_str, rep.dim_r) == (0, 0)


class TestSimplicity:
    def test_js02_simple(self):
        assert is_simple(js02()).simple

    def test_sl2_simple(self):
        assert is_simple(sl2()).simple

    def test_lw02_simple(self):
        assert is_simple(lw02()).simple

    def test_nilpotent_witness(self):
        J = FinSuperAlg((0, 0), 0, {(0, 0): {1: 1}})
        rep = is_simple(J)
        assert not rep.simple
        assert rep.witness is not None
        assert rep.witness.rows == ({1: F(1)},)

    def test_direct_sum_not_simple(self):
        rep = is_simple(direct_sum(js02(), js02()))
        assert not rep.simple
        assert rep.witness is not None
        assert 0 < rep.witness.dim < 4

    def test_zero_product_not_simple(self):
        assert not is_simple(FinSuperAlg((0, 1), 0, {})).simple

    def test_witness_needs_both_sides(self):
        # Odd a0, a1 and even b0, b1, with an odd product and no unit (the
        # even part of every product with b0 lies on the line of b0 + 3 b1).
        # In the basis e0 = a1, e1 = a0 + 2 a1, e2 = b0 + b1, e3 = b1 the
        # product is e0 e1 = -e1, e0 e2 = -e2, e0 e3 = 2 e3, e3 e3 = -e0.
        # Every basis vector generates the algebra, but the first probe
        # a0 + 2 a1 + b0 + b1 = e1 + e2 does not.  Left multiplications keep
        # its line; the right product with a1 gives e1 - e2, so the
        # two-sided closure is the ideal span(e1, e2).
        J = FinSuperAlg((1, 1, 0, 0), 1, {
            (0, 1): {0: 1, 1: 2}, (0, 2): {2: 2, 3: 6}, (0, 3): {3: -4},
            (1, 2): {2: -1, 3: -3}, (1, 3): {3: 2}, (2, 2): {1: -1},
            (2, 3): {1: 1}, (3, 3): {1: -1}})
        basis = [{i: F(1)} for i in range(4)]
        lefts = lambda u: [J.mult_vec(e, u) for e in basis]
        sides = lambda u: [*lefts(u), *(J.mult_vec(u, e) for e in basis)]
        assert all(closure_under(span_reduce([e]), sides).dim == 4
                   for e in basis)
        probe = {0: F(1), 1: F(2), 2: F(1), 3: F(1)}
        left = closure_under(span_reduce([probe]), lefts)
        assert left == span_reduce([probe])
        rep = is_simple(J)
        assert not rep.simple
        assert rep.witness == span_reduce([{0: F(1), 1: F(2)},
                                           {2: F(1), 3: F(1)}])


class TestParityReverse:
    def test_rigidity_and_simplicity_invariant(self):
        # Negating the stored table gives an isomorphic algebra (x -> -x),
        # so neither verdict may change.  Parity reversal of a stored
        # supersymmetric product is this negated table.
        for J in (js02(), lw02(), sl2(), rigidity_fixture()):
            negated = {key: {k: -c for k, c in out.items()}
                       for key, out in J.table.items()}
            R = FinSuperAlg(J.parities, J.product_parity, negated, J.labels)
            assert is_rigid(J).rigid == is_rigid(R).rigid
            assert is_simple(J).simple == is_simple(R).simple


class TestTkk:
    def test_js02_chain(self):
        G = tkk(js02(), depth_cap=3)
        assert G.dims == {-1: 2, 0: 3, 1: 4, 2: 5, 3: 6}
        assert not G.terminated

    def test_one_dim_idempotent_terminates(self):
        J = FinSuperAlg((0,), 0, {(0, 0): {0: 1}})
        G = tkk(J, depth_cap=4)
        assert G.dims == {-1: 1, 0: 1, 1: 1, 2: 0}
        assert G.terminated

    def test_lw02_matches_weighted_field_counts(self):
        # degree components of derivations of one even and one odd variable
        # (even variable weight 1, odd weight 0): two below degree zero, four
        # in every degree after that
        G = tkk(lw02(), depth_cap=4)
        assert G.dims == {-1: 2, 0: 4, 1: 4, 2: 4, 3: 4, 4: 4}
        assert not G.terminated

    def test_sl2_terminates(self):
        G = tkk(sl2(), depth_cap=3)
        assert G.terminated
        assert G.dims[1] == 1

    def test_grading_containment(self):
        G = tkk(js02(), depth_cap=3)
        pars = G.J.parities

        def maps(k):
            return walg._row_maps(G.components[k], k + 1, pars)
        for i in (1, 2):
            for j in (1, 2):
                if i + j not in G.components:
                    continue
                target = G.components[i + j]
                for u in maps(i):
                    for v in maps(j):
                        assert target.contains(w_bracket(u, v))

    def test_depth_cap_validation(self):
        with pytest.raises(ValueError):
            tkk(js02(), depth_cap=0)

    def test_depth_cap_must_be_an_integer(self):
        with pytest.raises(ValueError, match="integer"):
            tkk(js02(), depth_cap=2.5)

    @pytest.mark.parametrize("cap", [True, "2"])
    def test_depth_cap_is_not_a_bool_or_text(self, cap):
        with pytest.raises(ValueError, match="integer"):
            tkk(js02(), depth_cap=cap)

    def test_brackets_each_unordered_degree_one_pair_once(self, monkeypatch):
        # JS_0_8's 16 degree-one maps make 16 * 17 / 2 = 136 brackets, not
        # 16 * 16 = 256, and the 5 parts of degree 2 meet all 16: 216.  The
        # closures of Str and R bracket with operators, of arity 1.
        calls = []
        bracket = walg._bracket_flat

        def counted(f, v):
            calls.append(f.arity)
            return bracket(f, v)
        monkeypatch.setattr(walg, "_bracket_flat", counted)
        G = tkk(make("JS_0_8").algebra, 4)
        assert G.dims == {-1: 8, 0: 20, 1: 16, 2: 5, 3: 0}
        assert set(calls) == {1, 2}
        assert calls.count(2) == 216


def _tkk_reference(J, depth_cap):
    """tkk's components with every ordered pair of a degree-one map and a
    map of the previous degree bracketed."""
    pars = J.parities
    comps = {-1: span_reduce([{i: F(1)} for i in range(J.dim)]),
             0: str_algebra(J), 1: related_products(J)}
    def maps(k):
        return walg._row_maps(comps[k], k + 1, pars)
    g1 = maps(1)
    prev = g1
    for k in range(1, depth_cap):
        if comps[k].dim == 0:
            break
        comps[k + 1] = span_reduce([w_bracket(u, v) for u in g1 for v in prev])
        prev = maps(k + 1)
    return comps


@pytest.mark.parametrize("name", ["JS_0_2", "LW_0_2", *catalog._GRADED])
def test_tkk_matches_every_ordered_pair(name):
    J = make(name).algebra
    assert tkk(J, 4).components == _tkk_reference(J, 4)


class TestStructureConstantRecovery:
    def test_double_bracket_reproduces_products(self):
        for J in (js02(), lw02(), sl2()):
            mu = J.mu
            pars = J.parities
            for i in range(J.dim):
                for j in range(i, J.dim):
                    ei = MultiLinMap.vector({i: F(1)}, pars)
                    ej = MultiLinMap.vector({j: F(1)}, pars)
                    out = wb(wb(mu, ei), ej)
                    got = out.entries.get((), {})
                    assert got == J.product(i, j)


class TestAdmissibleFindim:
    def test_js02_all_hold(self):
        rep = check_admissible_findim(tkk(js02(), depth_cap=3))
        assert rep.degree_one_spanned
        assert rep.degree_zero_generated
        assert rep.chain_consistent
        assert rep.admissible

    def test_sl2_holds_with_line(self):
        rep = check_admissible_findim(tkk(sl2(), depth_cap=3))
        assert rep.admissible

    def test_zero_product_fails_generation(self):
        rep = check_admissible_findim(tkk(FinSuperAlg((0, 0), 0, {})))
        assert not rep.degree_zero_generated

    def test_degree_zero_other_than_str_fails(self):
        # Str(JS_0_2) is 3-dimensional, the span of L_0 and L_1 only 2.
        J = js02()
        G = tkk(J, depth_cap=3)
        G.components[0] = walg._str_generators(J)[0]
        assert G.components[0] != str_algebra(J)
        assert not check_admissible_findim(G).degree_zero_generated

    def test_cut_degree_two_breaks_the_chain(self):
        G = tkk(js02(), depth_cap=3)
        g2 = G.components[2]
        G.components[2] = span_reduce(g2.rows[:-1])
        assert 0 < G.components[2].dim < g2.dim
        rep = check_admissible_findim(G)
        assert not rep.chain_consistent
        assert rep.degree_one_spanned and rep.degree_zero_generated

    def test_chain_brackets_an_odd_map_with_itself(self):
        # Degree 1 is the line of one odd product whose square is nonzero,
        # so degree 2 is spanned by its bracket with itself alone.
        J = FinSuperAlg((0, 1, 1, 0), 1,
                        {(0, 0): {2: 1}, (0, 1): {3: 1}, (2, 3): {0: 1}})
        mu = J.mu
        square = w_bracket(mu, mu)
        assert square
        G = GradedLie(J, {0: str_algebra(J), 1: span_reduce([mu.as_vec()]),
                          2: span_reduce([square])})
        assert check_admissible_findim(G).chain_consistent


class TestOddSquareZeroGivesLie:
    def make_square_zero(self, alpha, beta, gamma=0):
        # products of the first two vectors land in the last two, which
        # multiply to zero unless gamma reconnects them
        pars = (0, 1, 1, 0)
        table = {(0, 0): {2: alpha}, (0, 1): {3: beta}}
        if gamma:
            table[(2, 3)] = {0: gamma}
        return FinSuperAlg(pars, 1, table)

    @staticmethod
    def reversed_jacobi_defects(J):
        """Defects of super-skew and super-Jacobi for the derived bracket
        [i,j] = (-1)^(flipped parity of i) * mu(i,j) on the flipped parities."""
        mu = J.mu
        rev = [1 - p for p in J.parities]

        def br(i, j):
            sign = -1 if rev[i] else 1
            return {k: sign * c for k, c in mu(i, j).items()}

        def br_vec(i, vec):
            out = {}
            for k, c in vec.items():
                for m, cm in br(i, k).items():
                    out[m] = out.get(m, F(0)) + c * cm
            return {k: c for k, c in out.items() if c}

        defects = []
        n = J.dim
        for i in range(n):
            for j in range(n):
                skew = dict(br(i, j))
                sign = -1 if (rev[i] and rev[j]) else 1
                for k, c in br(j, i).items():
                    skew[k] = skew.get(k, F(0)) + sign * c
                defects.append({k: c for k, c in skew.items() if c})
                for k in range(n):
                    lhs = br_vec(i, br(j, k))
                    s = -1 if (rev[i] and rev[j]) else 1
                    acc = dict(lhs)
                    for m, c in br_vec(j, br(i, k)).items():
                        acc[m] = acc.get(m, F(0)) - s * c
                    inner = br(i, j)
                    for m, c in br_vec_outer(br, inner, k).items():
                        acc[m] = acc.get(m, F(0)) - c
                    defects.append({m: c for m, c in acc.items() if c})
        return defects

    def test_square_zero_gives_lie(self):
        rng = random.Random(29)
        for _ in range(10):
            J = self.make_square_zero(F(rng.randint(-3, 3)),
                                      F(rng.randint(-3, 3)))
            mu = J.mu
            assert not w_bracket(mu, mu)
            assert all(not d for d in self.reversed_jacobi_defects(J))

    def test_nonzero_square_breaks_jacobi(self):
        J = self.make_square_zero(F(1), F(1), gamma=F(1))
        mu = J.mu
        assert w_bracket(mu, mu)
        assert any(self.reversed_jacobi_defects(J))

    def test_sl2_partner_squares_to_zero(self):
        mu = sl2().mu
        assert not w_bracket(mu, mu)


def br_vec_outer(br, vec, k):
    out = {}
    for i, c in vec.items():
        for m, cm in br(i, k).items():
            out[m] = out.get(m, F(0)) + c * cm
    return {m: c for m, c in out.items() if c}
