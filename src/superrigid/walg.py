"""Finite-dimensional superalgebras and the graded algebra of multilinear maps.

A FinSuperAlg stores exact structure constants of a supercommutative product;
anticommutative products are converted on construction to their parity-reversed
supersymmetric partners, so every stored product is supersymmetric.

MultiLinMap models k-argument supersymmetric multilinear maps on the underlying
superspace.  The insertion product and its commutator bracket, w_bracket,
organize these maps into a Z-graded Lie superalgebra with the space itself in degree -1, operators
in degree 0, and supersymmetric products in degree 1.  On top of that live the
structure operators of an algebra, the orbit of its product under them,
rigidity and simplicity tests, and the graded expansion generated by degree 1.

Str and the related products R are closures under the n left
multiplications L_i alone, each bound once into a unary map.  Str is the Lie
superalgebra the L_i generate, the smallest space holding them that ad L_i
sends into itself; R is the smallest space holding the product that act by
each L_i sends into itself, because act is a representation of the operator
algebra and so a subspace invariant under generators is invariant under all
of Str.  Both closures apply a flat kernel to flattened vectors as they
are, with no map built per step: _bracket_flat for Str, _act_flat for R.

Every kernel is driven by stored entries.  w_bracket, the one bracket of
the graded expansion and its admissibility check, inserts each operand into
the other through the other's first-argument table: each entry of g meets
only the entries of f whose first argument it hits, and both insertion sums
go into one integer accumulator on canonical keys, with no map built.  The
two flat kernels of the closures share the operator's forward and
transposed rows from _act_table: each entry of the other operand meets the
forward rows at its output and the transposed rows at its arguments, with
its signs taken per entry, and _act_flat sums only canonical output keys.

A map's common denominator and its two kernel tables, the first-argument
table and the operator rows, are built at most once per map, on first use,
and kept on it, so a map met by many partners is tabled once.  An algebra
keeps the maps of its left multiplications in the same way, so Str's and R's
closures share one build of their generators.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm

from .linalg import (
    Subspace,
    Vec,
    ZERO,
    _add_into,
    closure_under,
    ideal_closure,
    span_reduce,
    split_parity,
    vec_add,
    vec_clean,
)

F = Fraction


def _coeff(c, where) -> Fraction:
    """c as an exact Fraction; None, inf, nan or text that is no rational
    number raise a ValueError naming where c was given."""
    try:
        return F(c)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"coefficient {c!r} of {where} is not an exact "
                         "rational number") from None


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

    A map is not changed once it is built, so the common denominator of its
    coefficients (_den), the first-argument table that w_bracket reads
    (_first_args) and the operator rows of the flat kernels (_ints) are
    built on first use and kept on the map.  Every coefficient is converted
    to an exact Fraction, and zeros are dropped.  With check=True every
    index is checked to lie in the space and every entry to have the map's
    parity; internal callers that build maps from checked ones pass
    check=False and skip both checks.
    """

    __slots__ = ("arity", "parity", "parities", "entries", "_den",
                 "_first_args", "_ints")

    def __init__(self, arity, parity, parities, entries=None, *, check=True):
        if type(arity) is not int or arity < 0:
            raise ValueError(f"arity must be an integer >= 0, got {arity!r}")
        self.arity = arity
        self.parity = parity % 2
        self.parities = tuple(parities)
        self._den = self._first_args = self._ints = None
        n = len(self.parities)
        canon: dict = {}
        for key, out in (entries or {}).items():
            key = tuple(key)
            if len(key) != arity:
                raise ValueError(f"entry key {key} does not have arity {arity}")
            if check and not all(0 <= a < n for a in key):
                raise ValueError(f"entry key {key} has an index out of range")
            sign, skey = _sort_sign(key, self.parities)
            if sign == 0:
                continue
            slot = canon.setdefault(skey, {})
            for k, c in out.items():
                if type(c) is not F:
                    c = _coeff(c, f"entry {key}->{k}")
                if sign < 0:
                    c = -c
                s = slot.get(k)
                if s is not None:
                    c += s
                if c:
                    slot[k] = c
                else:
                    slot.pop(k, None)
        self.entries = {k: v for k, v in canon.items() if v}
        if check:
            for skey, out in self.entries.items():
                base = sum(self.parities[a] for a in skey)
                for k in out:
                    if not 0 <= k < n:
                        raise ValueError(
                            f"entry {skey}->{k} has an output out of range")
                    if (base + self.parities[k]) % 2 != self.parity:
                        raise ValueError(
                            f"entry {skey}->{k} violates parity {self.parity}"
                        )

    @classmethod
    def vector(cls, v, parities):
        """Arity-0 map holding one homogeneous vector of the space."""
        pars = {parities[i] for i in v}
        if len(pars) > 1:
            raise ValueError("mixed parity vector")
        parity = pars.pop() if pars else 0
        return cls(0, parity, parities, {(): v}, check=False)

    @classmethod
    def from_vec(cls, vec, arity, parities, parity=None, *, check=False):
        entries: dict = {}
        for (args, out), c in vec.items():
            entries.setdefault(tuple(args), {})[out] = c
        if parity is None:
            key = next(iter(vec), None)
            parity = _key_parity(key, parities) if key else 0
        return cls(arity, parity, parities, entries, check=check)

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


def _common_denominator(m: MultiLinMap) -> int:
    """Least common multiple of m's denominators, computed on first use and
    kept on m with its kernel tables."""
    if m._den is None:
        m._den = lcm(*(c.denominator for out in m.entries.values()
                       for c in out.values()))
    return m._den


def _first_arg_table(f: MultiLinMap):
    """Common denominator d of a map and its table {k: [(rest, [(m, c * d)])]}
    over every stored key and each distinct index k in it, where rest is the
    key less one k and the image is f(k, *rest), so the sign of moving k to
    the front comes from f's lookup.  _insert builds it once per map and
    keeps it on the map."""
    d = _common_denominator(f)
    tab: dict = {}
    for key in f.entries:
        for k in dict.fromkeys(key):
            i = key.index(k)
            rest = key[:i] + key[i + 1:]
            img = [(m, c.numerator * (d // c.denominator))
                   for m, c in f(k, *rest).items()]
            tab.setdefault(k, []).append((rest, img))
    return d, tab


def w_bracket(f: MultiLinMap, g: MultiLinMap) -> Vec:
    """Graded commutator of the insertion product, flattened:
    f o g - (-1)^{|f||g|} g o f as {(key, m): c} on canonical keys.

    f o g inserts g into the first slot of f, summed over shuffles.  A map
    with a arguments sits in degree a-1; the bracket lives in the degree sum,
    so two degree -1 maps underflow.  Both insertion sums are driven by the
    stored entries, each through the outer map's first-argument table (see
    _insert), and go into one accumulator of integers scaled by the common
    denominators of f and g; a Fraction is made once per surviving entry.
    """
    if f.arity + g.arity < 1:
        raise ValueError("arity underflow: both operands are plain vectors")
    if f.parities != g.parities:
        raise ValueError("operands live over different spaces")
    acc: dict = {}
    _insert(acc, f, g, 1)
    _insert(acc, g, f, 1 if f.parity and g.parity else -1)
    den = _common_denominator(f) * _common_denominator(g)
    return {(key, m): F(c, den)
            for key, slot in acc.items() for m, c in slot.items() if c}


def _insert(acc: dict, f: MultiLinMap, g: MultiLinMap, sign: int) -> None:
    """Add sign * (f o g), scaled by the common denominators of f and g, into
    acc {canonical key: {m: integer}}.

    f is tabled by its first argument, k -> (rest, f(k, *rest)); the table is
    built on f's first use as an outer map and kept on f.  Each entry
    A -> {k: c} of g meets the rows for k on the unsorted key A + rest, which
    _sort_sign sorts and signs; a sign of 0 (a repeated odd index) drops the
    term.  Position subsets that pick different copies of a repeated even
    index give the same split with the same sign, so a split is counted once
    and weighted by their number, the product over indices v of
    C(m_A(v) + m_rest(v), m_rest(v)).
    """
    if f._first_args is None:
        f._first_args = _first_arg_table(f)
    ftab = f._first_args[1]
    pars = f.parities
    dg = _common_denominator(g)
    for A, out in g.entries.items():
        in_A = set(A)
        for k, c in out.items():
            rows = ftab.get(k)
            if not rows:
                continue
            c = sign * c.numerator * (dg // c.denominator)
            for rest, img in rows:
                s, skey = _sort_sign(A + rest, pars)
                if not s:
                    continue
                for v in in_A.intersection(rest):
                    s *= comb(A.count(v) + rest.count(v), rest.count(v))
                w = s * c
                slot = acc.setdefault(skey, {})
                for m, d in img:
                    slot[m] = slot.get(m, 0) + w * d


def _act_flat(f: MultiLinMap, v: Vec) -> Vec:
    """The action of an operator on supersymmetric products, as a
    derivation-style commutator, (f.B)(x,y) = f(B(x,y)) - +/-(B(f(x),y) +
    +/-B(x,f(y))), on a flattened binary product {((a, b), m): c} with
    canonical keys (a <= b, no odd square), of any parities.  It agrees with
    w_bracket(f, B) on each homogeneous part B.

    The sum is driven by the entries of v.  An entry B(a, b) = c e_m adds
    c f(e_m) at (a, b), through f's forward rows, and meets f's transposed
    rows twice for each order (p, q) of its key: every i with f(i) hitting p
    gives the B(f(i), q) term at (i, q), and every j with f(j) hitting q the
    B(p, f(j)) term at (p, j).  Only canonical output keys are summed and
    odd squares are left out: the other values of a supersymmetric map
    follow from these, and its odd squares vanish.  The Koszul signs of the
    two terms are taken with the entry's own parity, so a mixed-parity v
    needs no split.  The sums run over integers scaled by the common
    denominators of f and v.
    """
    pars = f.parities
    if f._ints is None:
        f._ints = _act_table(f)
    df, fwd, back = f._ints
    pf = f.parity
    dv = lcm(*(c.denominator for c in v.values()))
    acc: dict = {}
    for ((a, b), m), c in v.items():
        c = c.numerator * (dv // c.denominator)
        row = fwd.get(m)
        if row:
            slot = acc.setdefault((a, b), {})
            for m2, d in row:
                slot[m2] = slot.get(m2, 0) + c * d
        # s2 is the sign of B(f(x), y) for an entry of parity pB; that of
        # B(x, f(y)), folded into w3, also depends on the parity of x.
        pB = (pars[a] + pars[b] + pars[m]) & 1
        s2 = 1 if pf & pB else -1
        orders = [(a, b, c)]
        if a != b:
            orders.append((b, a, -c if pars[a] & pars[b] else c))
        for p, q, w in orders:
            w2 = s2 * w
            for i, d in back.get(p, ()):
                if i < q or (i == q and not pars[q]):
                    slot = acc.setdefault((i, q), {})
                    slot[m] = slot.get(m, 0) + w2 * d
            w3 = w if pf & (pB ^ pars[p]) else -w
            for j, d in back.get(q, ()):
                if p < j or (p == j and not pars[p]):
                    slot = acc.setdefault((p, j), {})
                    slot[m] = slot.get(m, 0) + w3 * d
    den = df * dv
    return {(key, m): F(c, den)
            for key, slot in acc.items() for m, c in slot.items() if c}


def _bracket_flat(f: MultiLinMap, v: Vec) -> Vec:
    """w_bracket(f, .) on a flattened operator {((k,), m): c} of any parities.

    An entry g(e_k) = c e_m meets f's forward rows at m, giving the f o g
    term c f(e_m) at k, and f's transposed rows at k: each i with f(e_i)
    hitting e_k gives the g o f term at (i, m), signed with the entry's own
    parity, so a mixed-parity v needs no split.  Sums run over integers.
    """
    pars = f.parities
    if f._ints is None:
        f._ints = _act_table(f)
    df, fwd, back = f._ints
    pf = f.parity
    dv = lcm(*(c.denominator for c in v.values()))
    acc: dict = {}
    for ((k,), m), c in v.items():
        c = c.numerator * (dv // c.denominator)
        row = fwd.get(m)
        if row:
            slot = acc.setdefault(k, {})
            for m2, d in row:
                slot[m2] = slot.get(m2, 0) + c * d
        col = back.get(k)
        if col:
            w = c if pf & (pars[k] ^ pars[m]) else -c
            for i, d in col:
                slot = acc.setdefault(i, {})
                slot[m] = slot.get(m, 0) + w * d
    den = df * dv
    return {((i,), m): F(c, den)
            for i, slot in acc.items() for m, c in slot.items() if c}


def _act_table(f: MultiLinMap):
    """Common denominator d of an operator, its forward rows {k: [(m, c * d)]}
    for f(k) = sum c e_m and its transposed rows {m: [(k, c * d)]}.
    _act_flat and _bracket_flat build them once per map and keep them on it."""
    d = _common_denominator(f)
    fwd: dict = {}
    back: dict = {}
    for (k,), out in f.entries.items():
        for m, c in out.items():
            c = c.numerator * (d // c.denominator)
            fwd.setdefault(k, []).append((m, c))
            back.setdefault(m, []).append((k, c))
    return d, fwd, back


class FinSuperAlg:
    """Finite-dimensional superalgebra with exact structure constants.

    The stored product is always supersymmetric.  Anticommutative products
    enter through from_anticommutative, which flips every parity and the
    product parity and twists by the sign of the first factor; the flag
    anticommutative_presentation records that the user-facing product is the
    anticommutative original.

    Every coefficient is converted to an exact Fraction, and zeros are
    dropped.  The table is not changed once built, so the generators of Str
    (_gens, see _str_generators) are built on first use and kept.
    """

    __slots__ = ("parities", "product_parity", "table", "labels",
                 "anticommutative_presentation", "_gens")

    def __init__(self, parities, product_parity, table, labels=None, *,
                 anticommutative_presentation=False):
        self.parities = tuple(int(p) % 2 for p in parities)
        self.product_parity = int(product_parity) % 2
        self.labels = tuple(labels) if labels else None
        if self.labels and len(self.labels) != len(self.parities):
            raise ValueError("labels do not match dimension")
        self.anticommutative_presentation = bool(anticommutative_presentation)
        self._gens = None
        n = len(self.parities)
        canon: dict = {}
        for (i, j), out in table.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"basis index out of range in ({i},{j})")
            out = {k: _coeff(c, f"product of {i},{j} at {k}")
                   for k, c in out.items()}
            out = {k: c for k, c in out.items() if c}
            if not out:
                continue
            if i > j:
                sign = -1 if (self.parities[i] and self.parities[j]) else 1
                i, j = j, i
                out = {k: sign * c for k, c in out.items()}
            if (i, j) in canon:
                if canon[(i, j)] != out:
                    raise ValueError(
                        f"product of basis vectors {i},{j} given twice with "
                        "values that break supersymmetry")
            else:
                canon[(i, j)] = out
        for (i, j), out in canon.items():
            if i == j and self.parities[i]:
                raise ValueError(
                    f"odd basis vector {i} cannot have a nonzero square in a "
                    "supersymmetric product")
            want = (self.parities[i] + self.parities[j]
                    + self.product_parity) % 2
            for k in out:
                if not 0 <= k < n:
                    raise ValueError(
                        f"product of {i},{j} hits {k}, out of range")
                if self.parities[k] != want:
                    raise ValueError(
                        f"product of {i},{j} hits {k} of the wrong parity")
        self.table = canon

    @classmethod
    def from_anticommutative(cls, parities, product_parity, table, labels=None):
        """Store an anticommutative product via its parity-reversed partner."""
        parities = tuple(int(p) % 2 for p in parities)
        product_parity = int(product_parity) % 2
        n = len(parities)
        full: dict = {}
        for (i, j), out in table.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"basis index out of range in ({i},{j})")
            out = {k: _coeff(c, f"product of {i},{j} at {k}")
                   for k, c in out.items()}
            out = {k: c for k, c in out.items() if c}
            if (i, j) in full and full[(i, j)] != out:
                raise ValueError(f"product of {i},{j} given twice")
            full[(i, j)] = out
        for (i, j), out in list(full.items()):
            sign = -1 if (parities[i] and parities[j]) else 1
            mirror = {k: -sign * c for k, c in out.items()}
            if (j, i) in full and full[(j, i)] != mirror:
                raise ValueError(
                    f"products of {i},{j} and {j},{i} break anticommutativity")
            if i == j and not parities[i] and out:
                raise ValueError(
                    f"even basis vector {i} cannot have a nonzero square in "
                    "an anticommutative product")
            want = (parities[i] + parities[j] + product_parity) % 2
            for k in out:
                if not 0 <= k < n:
                    raise ValueError(
                        f"product of {i},{j} hits {k}, out of range")
                if parities[k] != want:
                    raise ValueError(
                        f"product of {i},{j} hits {k} of the wrong parity")
        partner: dict = {}
        for (i, j) in full:
            a, b = (i, j) if i <= j else (j, i)
            if (a, b) in partner:
                continue
            out = full.get((a, b))
            if out is None:
                sign = -1 if (parities[a] and parities[b]) else 1
                out = {k: -sign * c for k, c in full[(b, a)].items()}
            if not out:
                continue
            tw = -1 if parities[a] else 1
            partner[(a, b)] = {k: tw * c for k, c in out.items()}
        return cls(tuple(1 - p for p in parities), 1 - product_parity, partner,
                   labels, anticommutative_presentation=True)

    @property
    def dim(self) -> int:
        return len(self.parities)

    def _stored(self, i, j):
        """The stored row for e_i e_j, or None, and its sign: the table
        keeps i <= j, and swapping two odd factors negates."""
        if i <= j:
            return self.table.get((i, j)), 1
        sign = -1 if (self.parities[i] and self.parities[j]) else 1
        return self.table.get((j, i)), sign

    def product(self, i, j) -> Vec:
        out, sign = self._stored(i, j)
        if not out:
            return {}
        return dict(out) if sign > 0 else {k: -c for k, c in out.items()}

    def mult_vec(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for i, a in u.items():
            for j, b in v.items():
                row, sign = self._stored(i, j)
                if row:
                    _add_into(out, row, a * b if sign > 0 else -a * b)
        return out

    def mu_map(self) -> MultiLinMap:
        ent = {key: dict(out) for key, out in self.table.items()}
        return MultiLinMap(2, self.product_parity, self.parities, ent,
                           check=False)

    def __eq__(self, other):
        return (isinstance(other, FinSuperAlg)
                and self.parities == other.parities
                and self.product_parity == other.product_parity
                and self.table == other.table
                and self.anticommutative_presentation
                == other.anticommutative_presentation)

    def __repr__(self):
        n_odd = sum(self.parities)
        return (f"FinSuperAlg(dim={self.dim - n_odd}|{n_odd}, "
                f"product_parity={self.product_parity})")


def left_mult_op(J: FinSuperAlg, a) -> MultiLinMap:
    """Operator of left multiplication by a basis index or homogeneous vector."""
    if isinstance(a, int):
        a = {a: F(1)}
    for i in a:
        if not (isinstance(i, int) and 0 <= i < J.dim):
            raise ValueError(f"multiplier index {i!r} is not a basis index "
                             f"of a {J.dim}-dimensional algebra")
    a = {i: _coeff(c, f"multiplier index {i}") for i, c in a.items()}
    pars = {J.parities[i] for i in a}
    if len(pars) > 1:
        raise ValueError("mixed parity multiplier")
    parity = (J.product_parity + pars.pop()) % 2 if pars else J.product_parity
    entries: dict = {}
    for j in range(J.dim):
        img: Vec = {}
        for i, c in a.items():
            img = vec_add(img, J.product(i, j), c)
        if img:
            entries[(j,)] = img
    return MultiLinMap(1, parity, J.parities, entries, check=False)


def _homogeneous_maps(space: Subspace, arity, parities):
    key_parity = lambda key: _key_parity(key, parities)
    return [MultiLinMap.from_vec(part, arity, parities, p)
            for row in space.rows for part, p in split_parity(row, key_parity)]


def _lie_closure(gens: Subspace, maps) -> Subspace:
    """Lie superalgebra generated by a space of operators, given a map for
    each homogeneous part of its rows.

    This is the smallest space V containing the generators that ad f sends
    into itself for each generator f (Jacobson, Lie Algebras, ch. I).  By the
    graded Jacobi identity the x in V with [x, V] inside V form a subspace
    that holds the generators and is closed under bracketing with them, so it
    is all of V and V is a subalgebra.  The closure's maps are therefore ad f,
    by _bracket_flat, for the homogeneous parts f of the generators' span.
    """
    return closure_under(gens, [lambda v, f=f: _bracket_flat(f, v)
                                for f in maps])


def _one_step_orbit(mu: MultiLinMap, ops: Subspace) -> Subspace:
    """Span of a product and its images under a space of operators."""
    mu_vec = mu.as_vec()
    return span_reduce([mu_vec] + [
        _act_flat(f, mu_vec) for f in _homogeneous_maps(ops, 1, mu.parities)])


def _str_generators(J: FinSuperAlg) -> tuple[Subspace, list[MultiLinMap]]:
    """The span of J's left multiplications and a map for each homogeneous
    part of its rows: Str's generators and the operators of R's closure.
    Built on first use and kept on J, so the two closures share the maps and
    their kernel tables."""
    if J._gens is None:
        gens = span_reduce([left_mult_op(J, i).as_vec() for i in range(J.dim)])
        J._gens = gens, _homogeneous_maps(gens, 1, J.parities)
    return J._gens


def str_algebra(J: FinSuperAlg) -> Subspace:
    """Smallest bracket-closed operator space containing every left
    multiplication."""
    return _lie_closure(*_str_generators(J))


def related_products(J: FinSuperAlg) -> Subspace:
    """Smallest act-invariant space of supersymmetric products containing the
    structure product.

    Invariance under Str follows from invariance under the left
    multiplications alone: act is w_bracket restricted to operators on binary
    products, so by the graded Jacobi identity it is a representation of the
    operator algebra, and the operators that keep a subspace invariant form a
    Lie subalgebra.  The closure's maps are therefore act(f, .) for the
    homogeneous parts f of span(L_i), not for all of Str, each applied by
    _act_flat to the flattened products as they are, with no map built.
    """
    mu_vec = J.mu_map().as_vec()
    if not mu_vec:
        return ZERO
    return closure_under(span_reduce([mu_vec]),
                         [lambda v, f=f: _act_flat(f, v)
                          for f in _str_generators(J)[1]])


@dataclass
class RigidityReport:
    rigid: bool
    degenerate: bool
    dim_str: int
    dim_r: int
    witness: MultiLinMap | None
    str_space: Subspace
    r_space: Subspace


def is_rigid(J: FinSuperAlg) -> RigidityReport:
    """Whether every related product already lies in the one-step orbit of the
    structure product (its act-image plus its scalar line)."""
    S = str_algebra(J)
    mu = J.mu_map()
    if mu.is_zero():
        return RigidityReport(True, True, S.dim, 0, None, S, ZERO)
    R = related_products(J)
    one_step = _one_step_orbit(mu, S)
    if one_step == R:
        return RigidityReport(True, False, S.dim, R.dim, None, S, R)
    witness = None
    for row in R.rows:
        red = one_step.reduce(row)
        if red:
            witness = MultiLinMap.from_vec(red, 2, J.parities)
            break
    return RigidityReport(False, False, S.dim, R.dim, witness, S, R)


@dataclass
class SimplicityReport:
    simple: bool
    witness: Subspace | None


_PROBES = 3  # pseudo-random seeds that is_simple tries after the basis


def is_simple(J: FinSuperAlg) -> SimplicityReport:
    """Whether no proper nonzero subspace absorbs multiplication: the ideal
    check of a finite algebra.

    Checks the two-sided ideal of every basis vector and of ``_PROBES``
    deterministic pseudo-random vectors; any proper ideal is returned as a
    witness, which proves J is not simple.  A "simple" verdict is not a
    proof: a proper ideal can avoid every seed.  Each ideal comes from
    ``linalg.ideal_closure``: the closure under left multiplications,
    closed under right ones too only when it is proper.  That is exact for
    any table; the table's supersymmetry only makes the right maps idle.  A
    zero product is never simple.
    """
    n = J.dim
    if n == 0:
        return SimplicityReport(False, None)
    if not J.table:
        witness = span_reduce([{0: F(1)}]) if n > 1 else None
        return SimplicityReport(False, witness)
    # Left and right multiplication by each basis vector.
    units = [{i: F(1)} for i in range(n)]
    lefts = [lambda v, e=e: J.mult_vec(e, v) for e in units]
    rights = [lambda v, e=e: J.mult_vec(v, e) for e in units]
    rng = random.Random(11)
    candidates = list(units)
    for _ in range(_PROBES):
        v = {i: F(rng.randint(-2, 2)) for i in range(n)}
        v = vec_clean(v)
        if v:
            candidates.append(v)
    for v in candidates:
        closed = ideal_closure(span_reduce([v]), lefts, rights, full_dim=n)
        if closed.dim < n:
            return SimplicityReport(False, closed)
    return SimplicityReport(True, None)


@dataclass
class GradedLie:
    """Graded expansion of an algebra: components indexed by degree."""
    J: FinSuperAlg
    components: dict[int, Subspace] = field(default_factory=dict)
    depth_cap: int = 6
    terminated: bool = False

    @property
    def dims(self) -> dict[int, int]:
        return {k: self.components[k].dim for k in sorted(self.components)}


def tkk(J: FinSuperAlg, depth_cap: int = 6) -> GradedLie:
    """Graded Lie superalgebra generated by an algebra's product.

    Degree -1 is the space itself, degree 0 its structure operators, degree 1
    the related products, and each further degree the bracket of degree 1 with
    the previous one, up to depth_cap.  Reports whether the chain hit zero.
    """
    if type(depth_cap) is not int:
        raise ValueError(f"depth_cap must be an integer, got {depth_cap!r}")
    if depth_cap < 1:
        raise ValueError("depth_cap must be at least 1")
    pars = J.parities
    S = str_algebra(J)
    R = related_products(J)
    comps = {-1: span_reduce([{i: F(1)} for i in range(J.dim)]), 0: S, 1: R}
    terminated = R.dim == 0
    g1_maps = _homogeneous_maps(R, 2, pars)
    prev = g1_maps
    for k in range(1, depth_cap):
        if terminated:
            break
        # At k == 1 both sides are g1_maps, and w_bracket(v, u) =
        # -(-1)^{|u||v|} w_bracket(u, v): each unordered pair is bracketed once.
        vecs = [w_bracket(u, v) for a, u in enumerate(g1_maps)
                for v in prev[a if k == 1 else 0:]]
        nxt = span_reduce(vecs)
        comps[k + 1] = nxt
        if nxt.dim == 0:
            terminated = True
        else:
            prev = _homogeneous_maps(nxt, k + 2, pars)
    return GradedLie(J, comps, depth_cap, terminated)


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
    """
    J = G.J
    pars = J.parities
    mu = J.mu_map()
    g0 = G.components[0]
    g1 = G.components[1]

    if not mu.is_zero():
        degree_one_spanned = _one_step_orbit(mu, g0) == g1
        seeds = span_reduce([w_bracket(MultiLinMap.vector({i: F(1)}, pars), mu)
                             for i in range(J.dim)])
        degree_zero_generated = _lie_closure(
            seeds, _homogeneous_maps(seeds, 1, pars)) == g0
    else:
        degree_one_spanned = g1.dim == 0
        degree_zero_generated = False

    chain_consistent = True
    maps_by_deg = {
        k: _homogeneous_maps(G.components[k], k + 1, pars)
        for k in G.components if k >= 1
    }
    for k in sorted(G.components):
        if k < 2:
            continue
        vecs = []
        # w_bracket(v, u) = -(-1)^{|u||v|} w_bracket(u, v), so each unordered
        # splitting is bracketed once: i <= j, and u before v when i == j.
        for i in range(1, k // 2 + 1):
            j = k - i
            if i not in maps_by_deg or j not in maps_by_deg:
                continue
            for a, u in enumerate(maps_by_deg[i]):
                for v in maps_by_deg[j][a if i == j else 0:]:
                    vecs.append(w_bracket(u, v))
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
