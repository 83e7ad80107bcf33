"""Exact rational linear algebra over sparse vectors with orderable keys.

Vectors are dicts mapping hashable, totally ordered coordinate keys to nonzero
rational coefficients: an int when the coefficient is whole and a Fraction
otherwise.  That is the package's one coefficient rule: _coeff brings a given
coefficient to it, and the jets, structure constants and maps built on this
module keep it.  Every vector the elimination makes keeps it too (_whole),
whatever mix of ints and whole or proper Fractions it is given; as 2 ==
Fraction(2) and the two hash alike, the rule changes no comparison.  A
Subspace is a canonical reduced-echelon basis of such vectors: each basis row
has a pivot (its smallest key), pivot coefficient 1, and no row contains
another row's pivot.  Equal spans produce identical Subspace values, so
subspaces compare by ==.

Spans grow one vector at a time through a single elimination step: the vector's
remainder against the rows is normalised at its pivot and that pivot is cleared
from the other rows.  span_reduce, Subspace.extended and closure_under all grow
their spans this way.  The step clears each pivot from one copy of the vector
in place.  Rows are copy-on-write: spans grown from a Subspace share its row
dicts, so the step replaces a row it changes.  closure_under is the one closure
routine: the smallest span holding a seed that some linear maps send into
itself.  The maps come as one callable that returns a vector's images under
all of them, so a caller closing under a bilinear operation does each
vector's share of the work once for all partners.  A caller that knows a
finite coordinate space holding the seed and every image of the maps may pass
its dimension as ``full_dim``; the closure then stops once the span fills
that space, which is exact because a span of full dimension is the whole
space.  The bound must hold every image, not just the vectors the caller
cares about.  ideal_closure builds the two-sided ideal of a seed from
closure_under walks: under left products first, then, only when that span is
proper, under left and right products together.  A full span is the whole
space and holds every right image, and a proper one lies inside the ideal, so
the result is exact for any product; a symmetric product only makes the
second walk rare.  nullspace reads a kernel off span_reduce of an
operator's graph, so it grows its span through the same step.  split_parity
is the one parity splitter, for jets and vector fields, and vec_parity,
which reads a parity off it, the one parity reader of jets, vector fields
and oracle elements.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

Vec = dict
Key = Hashable


def _coeff(c, where):
    """c as an exact coefficient under the one rule: an int when it is whole
    and a Fraction otherwise, the form that vectors, structure constants,
    maps and jets store; a bool, None, inf, nan or text that is no rational
    number raise a ValueError naming where c was given."""
    if type(c) is bool:
        raise ValueError(f"coefficient {c!r} of {where} is a bool, not an "
                         "exact rational number")
    try:
        return _whole(Fraction(c))
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"coefficient {c!r} of {where} is not an exact "
                         "rational number") from None


def _whole(c):
    """c as an int when it is a whole Fraction, otherwise c as it is."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def vec_clean(v: Vec) -> Vec:
    """v without its zero coefficients, whole ones as ints."""
    return {k: _whole(c) for k, c in v.items() if c != 0}


def vec_add(u: Vec, v: Vec, scale=1) -> Vec:
    """u + scale*v as a new vector, clean when u is."""
    out = dict(u)
    _add_into(out, v, scale)
    return out


def _add_into(u: Vec, v: Vec, scale) -> None:
    """u += scale*v in place, dropping keys that cancel or stay zero; a sum
    that is whole is stored as an int."""
    for k, c in v.items():
        s = u.get(k)
        s = scale * c if s is None else s + scale * c
        if s:
            u[k] = _whole(s)
        else:
            u.pop(k, None)


def vec_scale(v: Vec, scale) -> Vec:
    """scale*v as a new vector, clean for a clean v and a nonzero scale;
    whole products are ints."""
    return {k: _whole(scale * c) for k, c in v.items()}


def split_parity(v: Vec, parity_of: Callable[[Key], int]) -> list:
    """Parity-homogeneous parts of v as (part, parity) pairs, by the parity
    parity_of(k) of each key; a homogeneous v comes back as is, uncopied."""
    if not v:
        return []
    keys = iter(v)
    p = parity_of(next(keys))
    if all(parity_of(k) == p for k in keys):
        return [(v, p)]
    parts: tuple = ({}, {})
    for k, c in v.items():
        parts[parity_of(k)][k] = c
    return [(parts[p], p), (parts[1 - p], 1 - p)]


def vec_parity(v: Vec, parity_of: Callable[[Key], int]) -> int | None:
    """The parity of v when v is nonzero and homogeneous, otherwise None."""
    parts = split_parity(v, parity_of)
    return parts[0][1] if len(parts) == 1 else None


class Subspace:
    """Canonical span of sparse vectors; immutable once built."""

    __slots__ = ("rows", "_by_pivot")

    def __init__(self, by_pivot: dict):
        """Span of reduced-echelon rows {pivot: row}; keeps the dict."""
        self._by_pivot = by_pivot
        self.rows = tuple(by_pivot[p] for p in sorted(by_pivot, key=_key_rank))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(sorted(r.items())) for r in self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim})"

    def reduce(self, v: Vec) -> Vec:
        """Remainder of v after elimination against the basis."""
        return _remainder(self._by_pivot, v)

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def extended(self, vectors: Iterable[Vec]) -> "Subspace":
        """Canonical span of self plus the given vectors."""
        rows = dict(self._by_pivot)
        for v in vectors:
            _accept(rows, v)
        return Subspace(rows)


def _remainder(rows: dict, v: Vec) -> Vec:
    """Remainder of v against reduced-echelon rows keyed by pivot: a clean
    copy of v, cleared pivot by pivot in place.  Neither v nor any row is
    written.

    No row holds another row's pivot, so each pivot coefficient of v is read
    before any elimination can change it.
    """
    v = vec_clean(v)
    for piv in [k for k in v if k in rows]:
        _add_into(v, rows[piv], -v[piv])
    return v


def _accept(rows: dict, v: Vec) -> Vec:
    """Grow the rows {pivot: row} by v; returns v's remainder, empty when v
    already lies in their span.

    The remainder is normalised at its pivot (its smallest key), which is
    no work when the pivot coefficient is already 1, and that pivot is
    cleared from the other rows, which keeps them reduced-echelon.  Rows may
    be shared with other Subspaces: one holding the pivot is replaced.
    """
    r = _remainder(rows, v)
    if r:
        piv = min(r)
        lead = r[piv]
        row = r if lead == 1 else vec_scale(r, Fraction(1) / lead)
        for p, other in rows.items():
            c = other.get(piv)
            if c:
                rows[p] = vec_add(other, row, -c)
        rows[piv] = row
    return r


def span_reduce(vectors: Iterable[Vec]) -> Subspace:
    """Canonical reduced-echelon Subspace spanning the given vectors."""
    return ZERO.extended(vectors)


def _key_rank(k):
    # Keys within one ambient share a type, so plain ordering works; this
    # wrapper exists only to keep the sort total if ints and tuples mix.
    return (0, k) if isinstance(k, tuple) else (1, (k,))


ZERO = Subspace({})


def closure_under(
    seed: Subspace,
    maps: Callable[[Vec], Iterable[Vec]],
    full_dim: int | None = None,
) -> Subspace:
    """Smallest subspace containing seed that each of some linear maps sends
    into itself; maps(v) returns v's images under every one of them.

    A worklist starts with the seed rows.  Each popped vector goes through
    maps once, and the remainder of each image outside the span so far joins
    the span and the worklist.  Every vector that joined is popped, so each
    map sends a spanning set, and by linearity the whole span, into the
    result; every vector that joined lies in any invariant space holding the
    seed.  The returned span is canonical, so the visiting order does not
    change it.

    ``full_dim`` is the dimension of a coordinate space known to hold the
    seed and every image of every map.  The walk stops as soon as the span
    reaches it: a span of that dimension inside that space is the whole
    space, which every map sends into itself.  The stop is exact only under
    that promise; a bound that some image can leave gives a span too small.
    """
    rows = dict(seed._by_pivot)
    queue = list(seed.rows)
    for v in queue:  # the queue grows while it is walked
        if len(rows) == full_dim:
            break
        for w in maps(v):
            r = _accept(rows, w)
            if r:
                queue.append(r)
                if len(rows) == full_dim:
                    break
    return Subspace(rows)


def ideal_closure(
    seed: Subspace,
    lefts: Callable[[Vec], Iterable[Vec]],
    rights: Callable[[Vec], Iterable[Vec]],
    full_dim: int,
) -> Subspace:
    """Smallest subspace containing seed that every left and right product
    sends into itself: the two-sided ideal a seed generates.  lefts(v) and
    rights(v) return v's left and right products with every partner.

    The seed is first closed under lefts alone.  A span that fills
    ``full_dim`` (as in closure_under) is the whole space, which every map
    sends into itself, so it is returned.  Otherwise the walk goes on from
    that span under lefts and rights together.  The first span lies inside
    the two-sided closure, so the result is that closure, for any maps.
    With a supercommutative or anticommutative product and a homogeneous
    seed each right product is +- a left one, so rights never runs when the
    left closure fills the space.
    """
    span = closure_under(seed, lefts, full_dim)
    if span.dim == full_dim:
        return span
    return closure_under(span, lambda v: [*lefts(v), *rights(v)], full_dim)


def nullspace(
    domain_basis: Sequence[Key],
    operator: Callable[[Key], Vec],
) -> list[Vec]:
    """Basis of the kernel of a linear operator given by its action on basis
    keys, as coordinate vectors over the domain keys: for each key whose
    image lies in the span of the earlier keys' images, in domain order,
    that key minus its combination of the earlier keys that own no vector.

    It is read off one span_reduce of the graph vectors (T e_j, e_j), with
    image key k as (0, k) and the j-th domain key as (1, -j).  Image keys
    rank first, so a row pivoted on a domain key has no image part: it is
    in the kernel.  Later domain keys rank before earlier ones, so such a
    row is e_j less earlier keys that pivot no other domain row.
    """
    graph = []
    for j, k in enumerate(domain_basis):
        v = {(0, i): c for i, c in operator(k).items()}
        v[(1, -j)] = 1
        graph.append(v)
    return [{domain_basis[-j]: c for (_, j), c in row.items()}
            for row in reversed(span_reduce(graph).rows) if min(row)[0]]
