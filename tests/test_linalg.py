from copy import deepcopy
from fractions import Fraction as F

import random

from hypothesis import given, settings, strategies as st

from conftest import direct_sum, random_field, random_jet, whole_as_int
from superrigid import catalog, linalg, walg
from superrigid.fields import VectorField
from superrigid.jets import Ambient, Jet
from superrigid.linalg import (
    Subspace,
    closure_under,
    ideal_closure,
    nullspace,
    span_reduce,
    split_parity,
    vec_add,
    vec_clean,
    vec_parity,
)
from superrigid.walg import FinSuperAlg


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


class TestSplitParity:
    """The one parity splitter, on plain dicts, jets and vector fields."""

    keys = st.integers(min_value=0, max_value=9).map(lambda i: (i,))
    vecs = st.dictionaries(keys, st.fractions().filter(bool), max_size=6)

    @staticmethod
    def key_parity(k):
        return k[0] & 1

    @given(vecs)
    @settings(max_examples=100)
    def test_parts_sum_to_input(self, u):
        parts = split_parity(u, self.key_parity)
        total: dict = {}
        for part, p in parts:
            assert part and {self.key_parity(k) for k in part} == {p}
            total = vec_add(total, part)
        assert total == u
        assert len({p for _, p in parts}) == len(parts) <= 2

    @given(vecs)
    @settings(max_examples=50)
    def test_homogeneous_comes_back_as_is(self, u):
        even = {k: c for k, c in u.items() if not self.key_parity(k)}
        parts = split_parity(even, self.key_parity)
        assert parts == ([(even, 0)] if even else [])
        if even:
            assert parts[0][0] is even

    @given(st.integers(0, 2**30), st.sampled_from([0, 1, None]))
    @settings(max_examples=60)
    def test_jet_parts(self, seed, parity):
        amb = Ambient(2, 3)
        f = random_jet(amb, random.Random(seed), parity=parity)
        parts = f.parity_parts()
        total = Jet.zero(amb)
        for part, p in parts:
            assert part.parity() == p
            total = total + part
        assert total == f
        if f.parity() is not None:
            assert parts == [(f, f.parity())] and parts[0][0] is f

    @given(st.integers(0, 2**30), st.sampled_from([0, 1, None]))
    @settings(max_examples=60)
    def test_field_parts(self, seed, parity):
        """VectorField.parity gives each parity part of a field, split here
        coefficient by coefficient, its own parity, and gives the field the
        parity of its one part, or None when it has none or two."""
        amb = Ambient(2, 2)
        X = random_field(amb, random.Random(seed), parity=parity)
        parts: dict = {}
        for s, c in X.coeffs.items():
            for part, p in c.parity_parts():
                parts.setdefault(p ^ (s[0] == "xi"), {})[s] = part
        total = VectorField.zero(amb)
        for p, coeffs in parts.items():
            part = VectorField(amb, coeffs)
            assert part.parity() == p
            total = total + part
        assert total == X
        assert X.parity() == (next(iter(parts)) if len(parts) == 1 else None)
        if parity is not None and not X.is_zero():
            assert X.parity() == parity

    @given(vecs)
    @settings(max_examples=60)
    def test_vec_parity(self, u):
        """vec_parity is the one parity of u's keys, and None for a zero or
        mixed vector."""
        ps = {self.key_parity(k) for k in u}
        want = ps.pop() if len(ps) == 1 else None
        assert vec_parity(u, self.key_parity) == want
        assert vec_parity({}, self.key_parity) is None


def shift(a):
    """Nilpotent shift e0 -> e1 -> e2 -> 0 on F^3."""
    return {(k[0] + 1,): c for k, c in a.items() if k[0] < 2}


class TestClosure:
    def test_closure_fixed_point(self):
        for seed in (span_reduce([v(((2,), 1))]),
                     span_reduce([v(((1,), 1)), v(((2,), 3))])):
            assert closure_under(seed, lambda a: [shift(a)]) == seed

    def test_closure_grows(self):
        # e0 + e2 reaches e1 and then e2 through the shift alone
        seed = span_reduce([v(((0,), 1), ((2,), 1))])
        out = closure_under(seed, lambda a: [shift(a)])
        assert out == span_reduce([v(((i,), 1)) for i in range(3)])
        assert all(out.contains(shift(r)) for r in out.rows)

    def test_pairwise_closure_sl2_like(self):
        # sl2 on basis e, f, h is the closure of span(e, f) under ad e and
        # ad f, which adds h = [e, f]
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

        e, f = v(((0,), 1)), v(((1,), 1))
        out = closure_under(span_reduce([e, f]),
                            lambda x: [br(e, x), br(f, x)])
        assert out.dim == 3
        assert all(not out.reduce(br(a, b)) for a in out.rows for b in out.rows)


    def test_full_dim_stop(self):
        # e0 reaches all of F^3 through the shift and the swap of e0 and e2.
        # Told that F^3 holds every image, the closure stops once it has
        # three rows, with the same span and fewer map calls.
        def swap(a):
            return {(2 - k[0],): c for k, c in a.items() if k[0] != 1}

        calls = []

        def both(a):
            calls.append(a)
            return [shift(a), swap(a)]

        seed = span_reduce([v(((0,), 1))])
        unbounded = closure_under(seed, both)
        n_unbounded = len(calls)
        calls.clear()
        stopped = closure_under(seed, both, full_dim=3)
        assert stopped == unbounded == span_reduce(
            [v(((i,), 1)) for i in range(3)])
        assert len(calls) < n_unbounded
        # A seed that already fills the space sends nothing through a map.
        calls.clear()
        assert closure_under(stopped, both, full_dim=3) == stopped
        assert calls == []


class TestRowsAreNotWritten:
    """Elimination writes neither the vectors it is given nor the rows of a
    Subspace: spans grown from a seed share its row dicts, so a row that
    changes is replaced by a new dict."""

    vecs = TestSpanProperties.vecs

    @staticmethod
    def reverse(a):
        return {(5 - k[0],): c for k, c in a.items()}

    @staticmethod
    def shift(a):
        return {(k[0] + 1,): c for k, c in a.items() if k[0] < 5}

    @given(st.lists(vecs, max_size=5), st.lists(vecs, min_size=1, max_size=4))
    @settings(max_examples=150)
    def test_inputs_and_seed_rows_unchanged(self, base, more):
        seed = span_reduce(base)
        inputs, rows = deepcopy((base, more)), deepcopy(seed.rows)
        # The identity hands the seed's own rows back to the elimination.
        lefts = lambda a: [self.shift(a), a]
        rights = lambda a: [self.reverse(a)]
        grown = [span_reduce(base + more), seed.extended(more),
                 closure_under(seed, lambda a: [*lefts(a), *rights(a)]),
                 ideal_closure(seed, lefts, rights, full_dim=6)]
        assert (base, more) == inputs
        assert seed.rows == rows
        assert grown[0] == grown[1]
        assert grown[2] == grown[3]


def counted(maps, calls):
    """maps, appending each image it makes to calls."""
    def call(a):
        images = maps(a)
        calls.extend(images)
        return images
    return call


def both(lefts, rights):
    """The images under lefts and rights together."""
    return lambda a: [*lefts(a), *rights(a)]


def random_product(rng, kind):
    """Parities and the product of a random graded algebra of dimension 1-5.

    kind is "super" (a FinSuperAlg, supercommutative), "anti" (a_i a_j =
    -(-1)^{p_i p_j} a_j a_i, checked by FinSuperAlg.from_anticommutative) or
    "arbitrary" (no symmetry).  Every product respects the grading.
    """
    n = rng.randint(1, 5)
    pars = [rng.randint(0, 1) for _ in range(n)]
    pp = rng.randint(0, 1)
    density = rng.choice([0.2, 0.4, 0.7])
    upper = {}
    for i in range(n):
        for j in range(n):
            if kind != "arbitrary" and j < i or rng.random() > density:
                continue
            if i == j and kind != "arbitrary" and pars[i] == (kind == "super"):
                continue   # a square that the symmetry forces to vanish
            hits = [k for k in range(n) if pars[k] == (pars[i] + pars[j] + pp) % 2]
            upper[(i, j)] = vec_clean({k: F(rng.randint(-2, 2))
                                       for k in hits if rng.random() < 0.6})
    if kind == "super":
        return pars, FinSuperAlg(pars, pp, upper).mult_vec
    table = dict(upper)
    if kind == "anti":
        FinSuperAlg.from_anticommutative(pars, pp, upper)
        for (i, j), out in upper.items():
            sign = 1 if pars[i] and pars[j] else -1
            table[(j, i)] = {k: sign * c for k, c in out.items()}
    return pars, table_product(table)


def table_product(table):
    """The bilinear product whose basis products are table[(i, j)], zero
    where the table has no entry."""
    def mult(u, w):
        out = {}
        for i, a in u.items():
            for j, b in w.items():
                out = vec_add(out, table.get((i, j), {}), a * b)
        return out
    return mult


def sides(mult, n):
    """Left and right multiplication by each of the n basis vectors."""
    units = [{i: F(1)} for i in range(n)]
    return (lambda w: [mult(e, w) for e in units],
            lambda w: [mult(w, e) for e in units])


class TestIdealClosure:
    """ideal_closure is the two-sided closure for any product; a symmetric
    product and a homogeneous seed only make its right maps idle."""

    @given(st.integers(0, 2**30), st.sampled_from(["super", "anti", "arbitrary"]),
           st.sampled_from(["homogeneous", "mixed", "zero"]))
    @settings(max_examples=300)
    def test_equals_unbounded_two_sided_closure(self, seed, kind, seed_kind):
        rng = random.Random(seed)
        pars, mult = random_product(rng, kind)
        n = len(pars)
        lefts, rights = sides(mult, n)
        if seed_kind == "zero":
            keys = []
        elif seed_kind == "homogeneous":
            p = rng.choice(pars)
            keys = [i for i in range(n) if pars[i] == p]
        else:
            keys = list(range(n))
        sv = vec_clean({i: F(rng.choice([-2, -1, 1, 3])) for i in keys})
        start = span_reduce([sv])
        right_calls = []
        got = ideal_closure(start, lefts, counted(rights, right_calls), n)
        assert got == closure_under(start, both(lefts, rights))
        if kind != "arbitrary" and seed_kind != "mixed":
            # Right products are +- left ones: the left closure is the ideal.
            assert got == closure_under(start, lefts)
            if got.dim == n:
                assert right_calls == []

    def test_fills_without_right_maps(self, monkeypatch):
        # JS_1_1's homogeneous default seed and every is_simple candidate
        # of JS_0_8 fill their space under left products alone.
        right_calls, dims = [], []

        def spy(seed, lefts, rights, full_dim):
            got = linalg.ideal_closure(seed, lefts,
                                       counted(rights, right_calls), full_dim)
            dims.append((got.dim, full_dim))
            return got

        monkeypatch.setattr(catalog, "ideal_closure", spy)
        rep = catalog.ideal_spot_checks(catalog.make("JS_1_1"))
        assert rep.passed and dims[0][0] == dims[0][1] > 0
        dims.clear()
        monkeypatch.setattr(walg, "ideal_closure", spy)
        assert walg.is_simple(catalog.make("JS_0_8").algebra).simple
        assert len(dims) > 8 and all(d == full for d, full in dims)
        assert right_calls == []

    def test_proper_left_closure_adds_right_maps(self):
        # is_simple's first candidate on JS_0_2 + JS_0_8 spans a proper
        # left closure, so the walk goes on with the right maps.  Each of
        # the 2 rows goes through the 10 left maps in the first walk, and
        # through the 10 left and 10 right maps in the second.
        J = direct_sum(catalog.make("JS_0_2").algebra,
                            catalog.make("JS_0_8").algebra)
        n = J.dim
        lefts, rights = sides(J.mult_vec, n)
        left_calls, right_calls = [], []
        start = span_reduce([{0: F(1)}])
        got = ideal_closure(start, counted(lefts, left_calls),
                            counted(rights, right_calls), n)
        assert got == closure_under(start, both(lefts, rights))
        assert got.dim == 2 < n
        assert (len(left_calls), len(right_calls)) == (40, 20)

    def test_right_products_feed_left_ones(self):
        # s.e = x and e.x = y with nothing else: the left closure of s is
        # span(s); the right product adds x, and only a left product of x
        # reaches y.
        mult = table_product({(0, 3): {1: F(1)}, (3, 1): {2: F(1)}})
        got = ideal_closure(span_reduce([{0: F(1)}]), *sides(mult, 4), 4)
        assert got == span_reduce([{i: F(1)} for i in range(3)])


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

    cells = st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 4)),
                            st.fractions(max_denominator=4), max_size=12)

    @given(st.integers(0, 7), cells)
    @settings(max_examples=200)
    def test_random_sparse_operator(self, n, cells):
        """One vector per key whose image depends on the earlier images: 1
        on that key, and otherwise only earlier keys that own no vector."""
        # The domain keys are in no order of their own: "earlier" is their
        # position in the domain.
        domain = [f"k{5 * j % 8}" for j in range(n)]
        pos = {k: j for j, k in enumerate(domain)}
        image = {k: {} for k in domain}
        for (j, i), c in cells.items():
            if j < n and c:
                image[domain[j]][i] = c
        kernel = nullspace(domain, image.__getitem__)
        owners = [max(w, key=pos.__getitem__) for w in kernel]
        assert [pos[k] for k in owners] == sorted({pos[k] for k in owners})
        for w, own in zip(kernel, owners):
            assert w[own] == 1
            assert all(k not in owners for k in w if k != own)
            total: dict = {}
            for k, c in w.items():
                total = vec_add(total, image[k], c)
            assert total == {}
        assert len(kernel) == n - span_reduce(image.values()).dim


def _frac_reduce(vectors):
    """Reference: the reduced-echelon rows of the span of the vectors, by
    Gauss-Jordan elimination on Fraction copies, in pivot order."""
    rows = {}
    for v in vectors:
        v = {k: F(c) for k, c in v.items() if c}
        for p, row in rows.items():
            c = v.get(p)
            if c:
                for k, d in row.items():
                    v[k] = v.get(k, F(0)) - c * d
                v = {k: c for k, c in v.items() if c}
        if not v:
            continue
        p = min(v)
        v = {k: c / v[p] for k, c in v.items()}
        for q, row in rows.items():
            c = row.get(p)
            if c:
                keys = set(row) | set(v)
                rows[q] = {k: row.get(k, F(0)) - c * v.get(k, F(0))
                           for k in keys}
                rows[q] = {k: d for k, d in rows[q].items() if d}
        rows[p] = v
    return [rows[p] for p in sorted(rows)]


def _frac_closure(vectors, maps):
    """Reference: the span of the vectors grown by every map's images of
    its rows, maps(r) listing them, until it stops growing."""
    rows = _frac_reduce(vectors)
    while True:
        grown = _frac_reduce(rows + [w for r in rows for w in maps(r)])
        if len(grown) == len(rows):
            return grown
        rows = grown


def _frac_kernel(domain, operator):
    """Reference: for each domain key whose image depends on the earlier
    images, in domain order, that key minus its combination of the earlier
    keys whose images are independent, by elimination that tracks each
    reduced image as a combination of domain keys."""
    basis = []   # (reduced image, its combination of domain keys)
    kernel = []
    for k in domain:
        r = {i: F(c) for i, c in operator(k).items() if c}
        comb = {k: F(1)}
        for b, bc in basis:
            c = r.get(min(b))
            if c:
                r = {i: d for i in set(r) | set(b)
                     if (d := r.get(i, F(0)) - c * b.get(i, F(0)))}
                for i, d in bc.items():
                    comb[i] = comb.get(i, F(0)) - c * d
        comb = {i: c for i, c in comb.items() if c}
        if r:
            p = r[min(r)]
            basis.append(({i: c / p for i, c in r.items()},
                          {i: c / p for i, c in comb.items()}))
        else:
            kernel.append(comb)
    return kernel


class TestWholeCoefficients:
    """Elimination keeps linalg's coefficient rule: every coefficient it
    stores is an int when it is whole and a Fraction otherwise, whatever mix
    of ints and whole or proper Fractions it was given, and its spans,
    closures and kernels equal those of a Fraction-only reference
    elimination."""

    keys = st.integers(0, 5).map(lambda i: (i,))
    coeffs = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(F),
                       st.fractions(min_value=-3, max_value=3,
                                    max_denominator=4))
    vecs = st.dictionaries(keys, coeffs, max_size=4)
    matrices = st.dictionaries(keys, vecs, max_size=6)

    @staticmethod
    def apply(matrix, v):
        """The linear map sending each key k to matrix[k], applied to v."""
        out = {}
        for k, c in v.items():
            for i, d in matrix.get(k, {}).items():
                out[i] = out.get(i, 0) + c * d
        return out

    @given(st.lists(vecs, max_size=5), st.lists(matrices, min_size=1,
                                                max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_reference(self, vs, mats):
        maps = lambda v: [self.apply(m, v) for m in mats]
        span = span_reduce(vs)
        assert list(span.rows) == _frac_reduce(vs)
        want = _frac_closure(vs, maps)
        closed = [closure_under(span, maps),
                  closure_under(span, maps, full_dim=6)]
        assert [list(c.rows) for c in closed] == [want, want]
        domain = [(j,) for j in range(6)]
        kernel = nullspace(domain, lambda k: mats[0].get(k, {}))
        assert kernel == _frac_kernel(domain, lambda k: mats[0].get(k, {}))
        for row in [*span.rows, *closed[0].rows, *closed[1].rows, *kernel]:
            assert whole_as_int(row), row

    def test_pivot_scaling_leaves_whole_entries_as_ints(self):
        s = span_reduce([{(0,): 2, (1,): 4, (2,): 3},
                         {(1,): F(3), (2,): F(1, 2)}])
        assert s.rows == ({(0,): 1, (2,): F(7, 6)}, {(1,): 1, (2,): F(1, 6)})
        assert [list(map(type, r.values())) for r in s.rows] == [
            [int, F], [int, F]]
        assert all(whole_as_int(r) for r in s.rows)
