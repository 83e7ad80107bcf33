"""Finite-dimensional superalgebras and the graded algebra of multilinear maps.

A FinSuperAlg is its product: one binary MultiLinMap mu of exact structure
constants, checked as it is built, from which its parities, product parity
and table are read.  An anticommutative product enters through
from_anticommutative, which twists each given entry by the parity of its
first factor and hands the result, its parity-reversed partner, to that
same constructor: the partner is supersymmetric exactly when the original
is anticommutative, so one set of checks serves both presentations.

MultiLinMap models k-argument supersymmetric multilinear maps on the
underlying superspace, each checked as it is built.  The insertion product
and its commutator bracket [f, g] organize these maps into a Z-graded
Lie superalgebra with the space itself in degree -1, operators in degree 0,
and supersymmetric products in degree 1.  On top of that live the structure
operators of an algebra, the orbit of its product under them, rigidity and
simplicity tests, and the graded expansion generated by degree 1.

Str and the related products R are closures under the n left
multiplications L_i alone, each bound once into a unary map.  Str is the Lie
superalgebra the L_i generate, the smallest space holding them that ad L_i
sends into itself.  R is the smallest space holding the product that
[L_i, .] sends into itself for each L_i: operators act on products by the
bracket, a representation of the operator algebra, so a subspace invariant
under the generators is invariant under all of Str.

One kernel, _bracket_flat, computes every bracket: both closures, the
one-step orbit of the product, the graded expansion and its admissibility
check.  Its operands are rows of graded superspaces: Str, R and each
component of the expansion.  Every row of a graded space's reduced echelon
basis is homogeneous, as the echelon bases of its even and odd parts
together are reduced and that basis is unique.  So each left row becomes
one map, whose parity check (MultiLinMap.from_vec) refuses a mixed row, and
each right row is taken as it is.  The kernel is driven by stored entries:
each entry of the flattened operand meets only the rows of the other map's
table that it hits, each output key is a merge of two sorted runs, and all
terms go into one integer accumulator on canonical keys.

Each map has one table: its common denominator, its first-argument and
output rows, and the terms each key it has met gives against its output
rows.  The table is built on first use and kept on the map, so a map met by
many partners is tabled once.  An algebra keeps one memo (see _kept) of
what several readers share: Str's generators, Str and R.  So is_rigid, tkk
and check_admissible_findim on one algebra close Str once.
"""
from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .linalg import (
    Subspace,
    Vec,
    _add_into,
    _coeff,
    _whole,
    closure_under,
    ideal_closure,
    nullspace,
    span_reduce,
    vec_clean,
)

F = Fraction


def _sort_sign(idxs, parities):
    """Sort basis indices ascending, tracking the sign from odd-odd swaps.

    Returns (sign, sorted_tuple); sign is 0 when an odd index repeats.
    """
    sign = 1
    lst = list(idxs)
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            if parities[lst[j - 1]] and parities[lst[j]]:
                sign = -sign
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b and parities[a]:
            return 0, tuple(lst)
    return sign, tuple(lst)


def _key_parity(key, parities):
    args, out = key
    s = parities[out]
    for a in args:
        s += parities[a]
    return s % 2


class MultiLinMap:
    """Supersymmetric multilinear map on a finite superspace.

    Entries are stored on canonically sorted argument tuples; queries with
    permuted or repeated arguments resolve through the Koszul sign.  A map of
    arity 0 is just a vector of the space, arity 1 an operator, arity 2 a
    supersymmetric product.

    Every map is checked as it is built: its parity and the space's must
    each be 0 or 1, each index must lie in the space and each entry must
    have the map's parity.  Every coefficient is stored exactly, an int when
    it is whole and a Fraction otherwise (linalg._coeff), and zeros are
    dropped.  A map is not changed once it is built, so its one kernel table
    (_tabs, see _tables) is built on first use and kept on the map.
    """

    __slots__ = ("arity", "parity", "parities", "entries", "_tabs")

    def __init__(self, arity, parity, parities, entries=None):
        if type(arity) is not int or arity < 0:
            raise ValueError(f"arity must be an integer >= 0, got {arity!r}")
        self.arity = arity
        self.parity = _parity(parity)
        self.parities = tuple(_parity(p) for p in parities)
        self._tabs = None
        n = len(self.parities)
        canon: dict = {}
        for key, out in (entries or {}).items():
            key = tuple(key)
            if len(key) != arity:
                raise ValueError(f"entry key {key} does not have arity {arity}")
            if not all(0 <= a < n for a in key):
                raise ValueError(f"entry key {key} has an index out of range")
            sign, skey = _sort_sign(key, self.parities)
            if sign == 0:
                continue
            slot = canon.setdefault(skey, {})
            for k, c in out.items():
                if type(c) is not int:
                    c = _coeff(c, f"entry {key}->{k}")
                if sign < 0:
                    c = -c
                s = slot.get(k)
                if s is not None:
                    c = _whole(c + s)
                if c:
                    slot[k] = c
                else:
                    slot.pop(k, None)
        self.entries = {k: v for k, v in canon.items() if v}
        for skey, out in self.entries.items():
            base = sum(self.parities[a] for a in skey)
            for k in out:
                if type(k) is not int or not 0 <= k < n:
                    raise ValueError(
                        f"entry {skey}->{k!r} has an output out of range")
                if (base + self.parities[k]) % 2 != self.parity:
                    raise ValueError(f"entry {skey}->{k} has an output of "
                                     "the wrong parity")

    @classmethod
    def from_vec(cls, vec, arity, parities, parity=None):
        """The map of a flattened {(key, m): c}; parity defaults to that of
        its first key."""
        entries: dict = {}
        for (args, out), c in vec.items():
            entries.setdefault(tuple(args), {})[out] = c
        if parity is None:
            key = next(iter(vec), None)
            parity = _key_parity(key, parities) if key else 0
        return cls(arity, parity, parities, entries)

    def as_vec(self) -> Vec:
        out = {}
        for args, images in self.entries.items():
            for k, c in images.items():
                out[(args, k)] = c
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def __call__(self, *idxs):
        if len(idxs) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(idxs)}")
        sign, key = _sort_sign(idxs, self.parities)
        if sign == 0:
            return {}
        images = self.entries.get(key)
        if not images:
            return {}
        if sign > 0:
            return dict(images)
        return {k: -c for k, c in images.items()}

    def __eq__(self, other):
        return (isinstance(other, MultiLinMap)
                and self.arity == other.arity
                and self.parities == other.parities
                and self.entries == other.entries)

    def __repr__(self):
        nnz = sum(len(v) for v in self.entries.values())
        return f"MultiLinMap(arity={self.arity}, parity={self.parity}, nnz={nnz})"


def _merge(A, B, pars):
    """The canonical key of A + B, for canonical keys A and B, with the sign
    and weight of reaching it: (s, key), s = 0 when an odd index is in both.

    s is the Koszul sign of the odd pairs that cross, an index of B before a
    larger one of A, times the even multiplicity, the product over indices x
    of C(m_A(x) + m_B(x), m_B(x)): position subsets of A + B that pick
    different copies of a repeated even index give the same term, so a key
    is reached once and weighted by their number.  A single index B, the
    one that f o g meets for a binary f, is placed by bisection.
    """
    if len(B) == 1:
        b = B[0]
        i = bisect_right(A, b)
        s = 1
        if pars[b]:
            for a in A[i:]:
                if pars[a]:
                    s = -s
        if i and A[i - 1] == b:
            if pars[b]:
                return 0, None
            s *= i - bisect_left(A, b) + 1
        return s, A[:i] + B + A[i:]
    s = 1
    for b in B:
        if pars[b]:
            for a in reversed(A):
                if a < b:
                    break
                if a == b:
                    return 0, None
                if pars[a]:
                    s = -s
    for x in set(A).intersection(B):
        s *= comb(A.count(x) + B.count(x), B.count(x))
    return s, tuple(sorted(A + B))


def _splits(key, pars):
    """(k, rest, flip) for each distinct index k of a canonical key: rest is
    the key less one k, and flip is 1 when moving k to the front passes an
    odd number of odd indices while k is odd."""
    odd, prev = 0, None
    for i, k in enumerate(key):
        if k != prev:
            yield k, key[:i] + key[i + 1:], odd & pars[k]
            prev = k
        odd ^= pars[k]


def _tables(f: MultiLinMap):
    """f's one kernel table: its common denominator d, its first-argument
    rows {k: [(rest, [(m, c * d)])]}, its output rows {m: [(key, c * d)]}
    and an empty dict for the g o f terms of each key that f meets (see
    _outer_terms).

    A first-argument row holds, for a stored key and each distinct index k
    of it, the key less one k and the image f(k, *rest), signed for moving
    k to the front.  An output row holds each stored key whose image hits
    e_m, with that coefficient.  _bracket_flat builds the table on f's first
    use and keeps it on f.
    """
    pars = f.parities
    d = lcm(*(c.denominator for out in f.entries.values()
              for c in out.values()))
    first: dict = {}
    outs: dict = {}
    for key, out in f.entries.items():
        img = [(m, c.numerator * (d // c.denominator)) for m, c in out.items()]
        for m, c in img:
            outs.setdefault(m, []).append((key, c))
        for k, rest, flip in _splits(key, pars):
            row = [(m, -c) for m, c in img] if flip else img
            first.setdefault(k, []).append((rest, row))
    return d, first, outs, {}


def _outer_terms(K, outs, pars):
    """The parity of a canonical key K and the g o f terms [(key, w)] of an
    entry g(K) = e_m, for a map f with output rows outs: g(f(x_B), x_rest)
    at B + rest for each split of K into p and rest and each key B whose
    image hits e_p, with the sign of moving p to the front and of merging
    B with rest.  They depend on K alone, not on m or the coefficient."""
    terms: dict = {}
    for p, rest, flip in _splits(K, pars):
        for B, d in outs.get(p, ()):
            s, key = _merge(B, rest, pars)
            if s:
                terms[key] = terms.get(key, 0) + (-s if flip else s) * d
    return sum(pars[a] for a in K) & 1, [t for t in terms.items() if t[1]]


def _bracket_flat(f: MultiLinMap, v: Vec) -> Vec:
    """[f, g] = f o g - (-1)^{|f||g|} g o f for a map f and a
    flattened g = v {(key, m): c} on canonical keys, of any arities and
    parities, flattened onto canonical keys.  v is taken as it is: a row of
    a graded space is homogeneous, and a mixed-parity v gives the sum of
    the brackets with its homogeneous parts.

    f o g inserts g into the first slot of f, summed over shuffles.  The sums
    are driven by the entries of v and f's one table (see _tables), built on
    f's first use and kept on f.  An entry g(K) = c e_m meets f's
    first-argument rows at m, which give the f o g terms at K + rest.  For
    each distinct index p of K it meets f's output rows at p, which give the
    g o f terms at B + (K less p); these depend on K alone, so they are
    merged once per key that f meets and kept in its table.  Each key is a
    merge of two sorted runs (_merge).  The g o f sign is taken with the
    entry's own parity, so a mixed-parity v needs no split.  The sums run
    over integers scaled by the common denominators of f and v.  A
    surviving entry comes out as an int when that denominator divides it, so
    a Fraction is made once per surviving entry that is not whole.
    """
    if f._tabs is None:
        f._tabs = _tables(f)
    df, first, outs, outer = f._tabs
    pars = f.parities
    pf = f.parity
    dv = lcm(*(c.denominator for c in v.values()))
    acc: dict = {}
    for (K, m), c in v.items():
        c = c.numerator * (dv // c.denominator)
        for rest, img in first.get(m, ()):
            if rest:
                s, key = _merge(K, rest, pars)
                if not s:
                    continue
                w = s * c
            else:
                key, w = K, c
            slot = acc.setdefault(key, {})
            for m2, d in img:
                slot[m2] = slot.get(m2, 0) + w * d
        kept = outer.get(K)
        if kept is None:
            kept = outer[K] = _outer_terms(K, outs, pars)
        kp, terms = kept
        if not pf & (kp ^ pars[m]):
            c = -c
        for key, d in terms:
            slot = acc.setdefault(key, {})
            slot[m] = slot.get(m, 0) + c * d
    den = df * dv
    return {(key, m): c // den if not c % den else F(c, den)
            for key, slot in acc.items() for m, c in slot.items() if c}


def _parity(p) -> int:
    """p as a parity, 0 or 1; anything else raises a ValueError naming it."""
    if isinstance(p, int) and p in (0, 1):
        return int(p)
    raise ValueError(f"parity {p!r} is not 0 or 1")


def _index_pair(key, n):
    """A table key as a pair of basis indices of an n-dimensional space;
    anything else raises a ValueError naming it."""
    if type(key) is not tuple or len(key) != 2 or not all(
            type(a) is int for a in key):
        raise ValueError(f"table key {key!r} is not a pair of integers")
    if not all(0 <= a < n for a in key):
        raise ValueError(f"basis index out of range in {key}")
    return key


def _kept(J, key, build):
    """J's memoised value for key ("gens", "str" or "r"), built by build()
    on first read and kept: exact, since J's product never changes after the
    constructor."""
    if key not in J._memo:
        J._memo[key] = build()
    return J._memo[key]


class FinSuperAlg:
    """Finite-dimensional superalgebra with exact structure constants.

    The stored product is always supersymmetric.  Anticommutative products
    enter through from_anticommutative as their parity-reversed partners;
    the flag anticommutative_presentation records that the user-facing
    product is the anticommutative original, and words the errors for it.

    The algebra is its product, the binary MultiLinMap ``mu``, which holds
    the parities, sorts and signs each key, stores each coefficient exactly
    (linalg._coeff) and checks the outputs; ``parities``, ``product_parity``
    and ``table`` read it.  The constructor checks only the keys, the
    coefficients, a nonzero odd square and a product given twice with
    clashing values: mu gets one key of each mirrored pair as given, and the
    other is checked against mu.  The product is not changed once built, so
    one memo (_memo, see _kept) keeps what several readers share: Str's
    generators, Str and R.
    """

    __slots__ = ("mu", "labels", "anticommutative_presentation", "_memo")

    def __init__(self, parities, product_parity, table, labels=None, *,
                 anticommutative_presentation=False):
        parities = tuple(parities)
        n = len(parities)
        self.labels = tuple(labels) if labels else None
        if self.labels and len(self.labels) != n:
            raise ValueError("labels do not match dimension")
        anti = self.anticommutative_presentation = bool(
            anticommutative_presentation)
        self._memo = {}
        given, mirrors = {}, []
        for key, out in table.items():
            i, j = _index_pair(key, n)
            out = {k: c if type(c) is int else _coeff(
                c, f"product of {i},{j} at {k}") for k, c in out.items()}
            if (j, i) in given:
                mirrors.append((i, j, vec_clean(out)))
            else:
                given[i, j] = out
        mu = self.mu = MultiLinMap(2, product_parity, parities, given)
        for (i, j), out in given.items():
            if i == j and mu.parities[i] and any(out.values()):
                raise ValueError(
                    f"even basis vector {i} cannot have a nonzero square in "
                    "an anticommutative product" if anti else
                    f"odd basis vector {i} cannot have a nonzero square in a "
                    "supersymmetric product")
        for i, j, out in mirrors:
            if mu(i, j) != out:  # a zero product clashes with a nonzero one
                i, j = sorted((i, j))
                raise ValueError(
                    f"products of {i},{j} and {j},{i} break anticommutativity"
                    if anti else f"product of basis vectors {i},{j} given "
                    "twice with values that break supersymmetry")

    @classmethod
    def from_anticommutative(cls, parities, product_parity, table, labels=None):
        """Store an anticommutative product x_i x_j as its parity-reversed
        partner e_i e_j = (-1)^{p_i} x_i x_j, every parity and the product
        parity flipped.  The partner is supersymmetric exactly when the
        original is anticommutative, so the constructor's checks serve both;
        only the parities and keys are checked here, before they are read.
        """
        parities = tuple(_parity(p) for p in parities)
        n = len(parities)
        partner: dict = {}
        for key, out in table.items():
            i, j = _index_pair(key, n)
            if parities[i]:
                out = {k: -_coeff(c, f"product of {i},{j} at {k}")
                       for k, c in out.items()}
            partner[(i, j)] = out
        return cls(tuple(1 - p for p in parities), 1 - _parity(product_parity),
                   partner, labels, anticommutative_presentation=True)

    parities = property(lambda self: self.mu.parities)
    product_parity = property(lambda self: self.mu.parity)
    dim = property(lambda self: len(self.mu.parities))

    @property
    def table(self) -> dict:
        """The product's entries, e_i e_j on the keys (i, j) with i <= j."""
        return self.mu.entries

    def product(self, i, j) -> Vec:
        return self.mu(i, j)

    def mult_vec(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        table, pars = self.mu.entries, self.parities
        for i, a in u.items():
            for j, b in v.items():
                # The table keeps i <= j; swapping two odd factors negates.
                row = table.get((i, j) if i <= j else (j, i))
                if row:
                    _add_into(out, row, -a * b if i > j and pars[i]
                              and pars[j] else a * b)
        return out

    def __eq__(self, other):
        return (isinstance(other, FinSuperAlg) and self.mu == other.mu
                and self.product_parity == other.product_parity
                and self.anticommutative_presentation
                == other.anticommutative_presentation)

    def __repr__(self):
        n_odd = sum(self.parities)
        return (f"FinSuperAlg(dim={self.dim - n_odd}|{n_odd}, "
                f"product_parity={self.product_parity})")


def left_mult_op(J: FinSuperAlg, i) -> MultiLinMap:
    """Operator of left multiplication by the basis vector e_i."""
    if type(i) is not int or not 0 <= i < J.dim:
        raise ValueError(f"multiplier index {i!r} is not a basis index "
                         f"of a {J.dim}-dimensional algebra")
    return MultiLinMap(1, (J.product_parity + J.parities[i]) % 2, J.parities,
                       {(j,): J.product(i, j) for j in range(J.dim)})


def _row_maps(space: Subspace, arity, parities) -> list[MultiLinMap]:
    """The map of each row of a graded space, in row order: the kernel's
    left operands.  A mixed row raises from_vec's ValueError."""
    return [MultiLinMap.from_vec(row, arity, parities) for row in space.rows]


def _splitting_brackets(lefts, rows, same: bool) -> list[Vec]:
    """_bracket_flat of each left map with each right row.

    With same, lefts[a] is the map of rows[a] and meets rows[a:] only:
    [v, u] = -(-1)^{|u||v|} [u, v], so each unordered
    pair of one degree is bracketed once.
    """
    return [_bracket_flat(u, v) for a, u in enumerate(lefts)
            for v in rows[a if same else 0:]]


def _bracket_closure(seed: Subspace, maps) -> Subspace:
    """Smallest span holding seed that [f, .] sends into itself for each
    map f, each bracket applied by _bracket_flat to the flattened vectors
    as they are."""
    return closure_under(seed, lambda v: [_bracket_flat(f, v) for f in maps])


def _one_step_orbit(mu: MultiLinMap, ops: Subspace) -> Subspace:
    """Span of a product and its images under a space of operators.

    The image of each operator row f is [f, mu] = -(-1)^{|f||mu|} [mu, f],
    a multiple of the kernel applied as mu on the row as it is: mu is
    tabled once, and no operator becomes a map.
    """
    return span_reduce([mu.as_vec()]
                       + [_bracket_flat(mu, row) for row in ops.rows])


def _str_generators(J: FinSuperAlg) -> tuple[Subspace, list[MultiLinMap]]:
    """The span of J's left multiplications L_i and their maps: Str's
    generators and the operators of both closures.  Each L_i is homogeneous,
    and a space invariant under the L_i is invariant under their span.
    Kept in J's memo, so the two closures share the maps and their kernel
    tables, and is_simple reads the annihilator off them."""
    def build():
        ops = [left_mult_op(J, i) for i in range(J.dim)]
        return span_reduce([f.as_vec() for f in ops]), ops
    return _kept(J, "gens", build)


def str_algebra(J: FinSuperAlg) -> Subspace:
    """Smallest bracket-closed operator space containing every left
    multiplication.

    This is the smallest space V containing the generators that ad f sends
    into itself for each generator f (Jacobson, Lie Algebras, ch. I).  By the
    graded Jacobi identity the x in V with [x, V] inside V form a subspace
    that holds the generators and is closed under bracketing with them, so it
    is all of V and V is a subalgebra.  The closure's maps are therefore
    ad L_i for the left multiplications L_i.  Kept in J's memo.
    """
    return _kept(J, "str", lambda: _bracket_closure(*_str_generators(J)))


def related_products(J: FinSuperAlg) -> Subspace:
    """Smallest space of supersymmetric products containing the structure
    product that every structure operator sends into itself by the bracket.

    Invariance under Str follows from invariance under the left
    multiplications alone: by the graded Jacobi identity the bracket is a
    representation of the operator algebra on binary products, and the
    operators that keep a subspace invariant form a Lie subalgebra.  The
    closure's maps are therefore [L_i, .], not those of all of
    Str.  Kept in J's memo.
    """
    return _kept(J, "r", lambda: _bracket_closure(
        span_reduce([J.mu.as_vec()]), _str_generators(J)[1]))


@dataclass
class RigidityReport:
    rigid: bool
    witness: MultiLinMap | None
    str_space: Subspace
    r_space: Subspace

    dim_str = property(lambda self: self.str_space.dim)
    dim_r = property(lambda self: self.r_space.dim)
    # The product is zero exactly when R, which holds it, is 0.
    degenerate = property(lambda self: self.r_space.dim == 0)


def is_rigid(J: FinSuperAlg) -> RigidityReport:
    """Whether every related product already lies in the one-step orbit of the
    structure product (its image under Str plus its scalar line)."""
    S = str_algebra(J)
    R = related_products(J)
    one_step = _one_step_orbit(J.mu, S)
    rigid = one_step == R
    reds = () if rigid else filter(None, map(one_step.reduce, R.rows))
    red = next(iter(reds), None)
    witness = red and MultiLinMap.from_vec(red, 2, J.parities)
    return RigidityReport(rigid, witness, S, R)


@dataclass
class SimplicityReport:
    simple: bool
    witness: Subspace | None


_PROBES = 3  # pseudo-random seeds that is_simple tries after the basis


def is_simple(J: FinSuperAlg) -> SimplicityReport:
    """Whether no proper nonzero subspace absorbs multiplication: the ideal
    check of a finite algebra.

    Checks the two-sided ideal of every basis vector and of ``_PROBES``
    deterministic pseudo-random vectors, then the square J^2 and the
    annihilator, which are ideals whatever the seeds; any proper ideal is
    returned as a witness, which proves J is not simple.  A "simple"
    verdict is not a proof: a proper ideal can avoid every seed and be
    neither.  Each seed's ideal comes from ``linalg.ideal_closure``: the
    closure under left multiplications, closed under right ones too only
    when it is proper.  That is exact for any table; the table's
    supersymmetry only makes the right maps idle.  The annihilator is the
    kernel of e_k -> L_k, read off Str's generators in J's memo.  A zero
    product is never simple.
    """
    n = J.dim
    if n <= 1 and not J.table:
        return SimplicityReport(False, None)
    # Left and right multiplication by each basis vector.
    units = [{i: 1} for i in range(n)]
    lefts = lambda v: [J.mult_vec(e, v) for e in units]
    rights = lambda v: [J.mult_vec(v, e) for e in units]
    rng = random.Random(11)
    candidates = list(units)
    for _ in range(_PROBES):
        v = vec_clean({i: rng.randint(-2, 2) for i in range(n)})
        if v:
            candidates.append(v)
    for v in candidates:
        closed = ideal_closure(span_reduce([v]), lefts, rights, full_dim=n)
        if closed.dim < n:
            return SimplicityReport(False, closed)
    square = span_reduce(J.table.values())
    if square.dim < n:
        return SimplicityReport(False, square)
    gens, ops = _str_generators(J)
    if gens.dim < n:
        ann = nullspace(range(n), lambda k: ops[k].as_vec())
        return SimplicityReport(False, span_reduce(ann))
    return SimplicityReport(True, None)


@dataclass
class GradedLie:
    """Graded expansion of an algebra: components indexed by degree."""
    J: FinSuperAlg
    components: dict[int, Subspace]

    @property
    def dims(self) -> dict[int, int]:
        return {k: self.components[k].dim for k in sorted(self.components)}

    @property
    def terminated(self) -> bool:
        """The chain hit zero: its last component is 0."""
        return self.components[max(self.components)].dim == 0


def tkk(J: FinSuperAlg, depth_cap: int = 6) -> GradedLie:
    """Graded Lie superalgebra generated by an algebra's product.

    Degree -1 is the space itself, degree 0 its structure operators, degree 1
    the related products, and each further degree the bracket of degree 1 with
    the previous one, up to depth_cap or the first zero component.  Each
    step is one _splitting_brackets of the degree-1 maps with the rows of
    the previous degree; degree 2 brackets each unordered pair once.
    """
    if type(depth_cap) is not int:
        raise ValueError(f"depth_cap must be an integer, got {depth_cap!r}")
    if depth_cap < 1:
        raise ValueError("depth_cap must be at least 1")
    comps = {-1: span_reduce([{i: 1} for i in range(J.dim)]),
             0: str_algebra(J), 1: related_products(J)}
    g1_maps = _row_maps(comps[1], 2, J.parities)
    for k in range(1, depth_cap):
        if comps[k].dim == 0:
            break
        comps[k + 1] = span_reduce(
            _splitting_brackets(g1_maps, comps[k].rows, k == 1))
    return GradedLie(J, comps)


@dataclass
class AdmissibleFindimReport:
    degree_one_spanned: bool
    degree_zero_generated: bool
    chain_consistent: bool

    @property
    def admissible(self) -> bool:
        return (self.degree_one_spanned and self.degree_zero_generated
                and self.chain_consistent)


def check_admissible_findim(G: GradedLie) -> AdmissibleFindimReport:
    """Check the three graded conditions on a graded expansion:

    degree 1 spanned by the operator action on the product plus its line,
    degree 0 generated by brackets of the space with the product, and every
    higher component equal to the span of all bracket splittings of lower
    positive degrees.

    The brackets [e_i, mu] are +-L_i, Str's generators, so degree 0 is
    generated by them when g0 is str_algebra, their closure, read from J's
    memo.  A zero product generates nothing.  The splittings of each degree
    go through _splitting_brackets, as in tkk, so a component with a mixed
    row raises a ValueError.
    """
    J = G.J
    pars = J.parities
    g0 = G.components[0]
    degree_one_spanned = _one_step_orbit(J.mu, g0) == G.components[1]
    degree_zero_generated = bool(J.table) and str_algebra(J) == g0

    # Degree i sits on the left only for i <= top // 2 and degree j on the
    # right only for j < top, so the top degree is neither.
    chain_consistent = True
    top = max(G.components)
    lefts = {k: _row_maps(G.components[k], k + 1, pars)
             for k in G.components if 1 <= k <= top // 2}
    for k in sorted(G.components):
        if k < 2:
            continue
        # Each unordered splitting i + j = k is bracketed once: i <= j.
        vecs = []
        for i in range(1, k // 2 + 1):
            if i in lefts and k - i in G.components:
                vecs += _splitting_brackets(lefts[i], G.components[k - i].rows,
                                            2 * i == k)
        if span_reduce(vecs) != G.components[k]:
            chain_consistent = False
    return AdmissibleFindimReport(degree_one_spanned, degree_zero_generated,
                                  chain_consistent)


def format_element(J: FinSuperAlg, v: Vec) -> str:
    if not v:
        return "0"
    names = J.labels or tuple(f"e{i}" for i in range(J.dim))
    parts = []
    for i in sorted(v):
        c = v[i]
        mag = abs(c)
        body = names[i] if mag == 1 else f"{mag}*{names[i]}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def format_product(J: FinSuperAlg, B: MultiLinMap) -> str:
    """A binary map on J's space as '(x, y) -> image' for each stored pair,
    in sorted pair order, with J's basis labels."""
    names = J.labels or tuple(f"e{i}" for i in range(J.dim))
    return "; ".join(f"({names[a]}, {names[b]}) -> {format_element(J, out)}"
                     for (a, b), out in sorted(B.entries.items()))
