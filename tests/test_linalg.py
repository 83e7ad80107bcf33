from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from superrigid.linalg import (
    Subspace,
    closure_under,
    nullspace,
    span_reduce,
    vec_add,
)


def v(*pairs):
    return {k: F(c) for k, c in pairs if c}


class TestSpanReduce:
    def test_parallel_vectors_collapse(self):
        s = span_reduce([v(((0,), 1)), v(((0,), 2))])
        assert s.dim == 1
        assert s.rows[0] == v(((0,), 1))

    def test_empty_input(self):
        s = span_reduce([])
        assert s.dim == 0

    def test_zero_vectors_dropped(self):
        s = span_reduce([{}, v(((0,), 0))])
        assert s.dim == 0

    def test_full_plane(self):
        s = span_reduce([v(((0,), 1), ((1,), 1)), v(((0,), 1), ((1,), -1))])
        assert s.dim == 2
        # canonical basis: unit vectors
        assert s.rows[0] == v(((0,), 1))
        assert s.rows[1] == v(((1,), 1))

    def test_canonical_independent_of_order(self):
        a = v(((0,), 2), ((1,), 3))
        b = v(((1,), 5), ((2,), 7))
        assert span_reduce([a, b]) == span_reduce([b, a])
        assert span_reduce([a, b]) == span_reduce([vec_add(a, b), b])

    def test_contains(self):
        s = span_reduce([v(((0,), 1), ((1,), 1))])
        assert s.contains(v(((0,), 3), ((1,), 3)))
        assert not s.contains(v(((0,), 1)))
        assert s.contains({})


class TestSpanProperties:
    keys = st.integers(min_value=0, max_value=5).map(lambda i: (i,))
    vecs = st.dictionaries(keys, st.fractions(), max_size=5)

    @given(st.lists(vecs, max_size=6))
    @settings(max_examples=200)
    def test_idempotent(self, vs):
        s = span_reduce(vs)
        assert span_reduce(s.rows) == s

    @given(st.lists(vecs, max_size=5), vecs)
    @settings(max_examples=200)
    def test_monotone(self, vs, extra):
        s = span_reduce(vs)
        t = s.extended([extra])
        assert t.dim >= s.dim
        assert all(t.contains(r) for r in s.rows)
        assert t.contains(extra)

    @given(st.lists(vecs, max_size=5))
    @settings(max_examples=200)
    def test_members_reduce_to_zero(self, vs):
        s = span_reduce(vs)
        for u in vs:
            assert s.contains(u)


class TestClosure:
    def test_closure_fixed_point(self):
        # multiplication by a nilpotent shift on F^3
        def shift(a, b):  # bilinear stand-in: acts through the first slot only
            return {}

        seed = span_reduce([v(((0,), 1))])
        assert closure_under(seed, [shift], seed) == seed

    def test_closure_grows(self):
        # map (p, w) -> p acting as "add the partner" forces the span of both
        def inject(p, w):
            return dict(p)

        seed = span_reduce([v(((0,), 1))])
        partners = span_reduce([v(((1,), 1))])
        out = closure_under(seed, [inject], partners)
        assert out.dim == 2

    def test_pairwise_closure_sl2_like(self):
        # bracket on basis e,f,h given by structure constants of sl2
        table = {
            ((0,), (1,)): v(((2,), 1)),
            ((1,), (0,)): v(((2,), -1)),
            ((2,), (0,)): v(((0,), 2)),
            ((0,), (2,)): v(((0,), -2)),
            ((2,), (1,)): v(((1,), -2)),
            ((1,), (2,)): v(((1,), 2)),
        }

        def br(a, b):
            out = {}
            for ka, ca in a.items():
                for kb, cb in b.items():
                    for kc, cc in table.get((ka, kb), {}).items():
                        out = vec_add(out, {kc: cc * ca * cb})
            return out

        seed = span_reduce([v(((0,), 1)), v(((1,), 1))])
        out = closure_under(seed, [br])
        assert out.dim == 3
        assert all(not out.reduce(br(a, b)) for a in out.rows for b in out.rows)

    def test_partnerless_closure_is_closed(self):
        # (a, b) -> (e0-coefficient of a) * (b shifted up one key, below 4):
        # from e0 alone, e_k+1 appears only once e_k is paired with e0
        def shift(a, b):
            c = a.get((0,))
            if not c:
                return {}
            return {(k[0] + 1,): c * x for k, x in b.items() if k[0] < 3}

        out = closure_under(span_reduce([v(((0,), 1))]), [shift])
        assert out == span_reduce([v(((i,), 1)) for i in range(4)])
        assert all(not out.reduce(shift(a, b)) for a in out.rows for b in out.rows)

    def test_closure_is_two_sided(self):
        # a map reading only its first argument and one reading only its
        # second close a seed to the same span: both argument orders are tried
        def first(a, b):
            return dict(a)

        def second(a, b):
            return dict(b)

        seed = span_reduce([v(((0,), 1))])
        partners = span_reduce([v(((1,), 1)), v(((2,), 1), ((3,), 2))])
        out = closure_under(seed, [first], partners)
        assert out == closure_under(seed, [second], partners)
        assert out.dim == 3


class TestNullspace:
    def test_kernel_of_projection(self):
        # operator sending (a,b,c) -> (a+b, 0, 0)
        def op(k):
            if k in ((0,), (1,)):
                return {(0,): F(1)}
            return {}

        ker = nullspace([(0,), (1,), (2,)], op)
        s = span_reduce(ker)
        assert s.dim == 2
        assert s.contains({(0,): F(1), (1,): F(-1)})
        assert s.contains({(2,): F(1)})

    def test_injective_operator(self):
        def op(k):
            return {k: F(2)}

        assert nullspace([(0,), (1,)], op) == []
