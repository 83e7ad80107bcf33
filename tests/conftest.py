"""Shared randomized-construction helpers and fixtures for the test suite."""
from __future__ import annotations

import random
from fractions import Fraction as F

from superrigid.fields import VectorField
from superrigid.jets import Ambient, Jet
from superrigid.walg import FinSuperAlg


def whole_as_int(vec: dict) -> bool:
    """True when every coefficient of vec is an int when it is whole and a
    Fraction otherwise: no whole Fraction, no float."""
    return all(c.denominator != 1 if type(c) is F else type(c) is int
               for c in vec.values())


def random_jet(
    amb: Ambient,
    rng: random.Random,
    max_even_deg: int = 2,
    parity: int | None = None,
    n_terms: int = 3,
) -> Jet:
    """Small random jet with coefficients in {-3..3}; optionally homogeneous
    of the requested parity."""
    monos = [
        m
        for m in amb.monomials(max_even_deg)
        if parity is None or len(m[1]) & 1 == parity
    ]
    out = Jet.zero(amb)
    for _ in range(n_terms):
        m = rng.choice(monos)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        out = out + Jet(amb, {m: F(c)})
    return out


def random_field(
    amb: Ambient,
    rng: random.Random,
    max_even_deg: int = 2,
    parity: int | None = None,
    n_terms: int = 3,
) -> VectorField:
    """Random field; when parity is given, every term matches that total
    parity (coefficient plus slot)."""
    slots = [("x", i) for i in range(1, amb.n_even + 1)] + [
        ("xi", j) for j in range(1, amb.n_odd + 1)
    ]
    out = VectorField.zero(amb)
    for _ in range(n_terms):
        slot = rng.choice(slots)
        pslot = 0 if slot[0] == "x" else 1
        want = None if parity is None else parity ^ pslot
        c = random_jet(amb, rng, max_even_deg, want, n_terms=1)
        out = out + VectorField(amb, {slot: c})
    return out


def direct_sum(J1: FinSuperAlg, J2: FinSuperAlg) -> FinSuperAlg:
    """The direct sum of two algebras with the same product parity and
    presentation: J2's basis follows J1's, and cross products vanish.  A
    reducible algebra, so a fixture for the ideal checks."""
    if J1.product_parity != J2.product_parity:
        raise ValueError("product parities differ")
    if J1.anticommutative_presentation != J2.anticommutative_presentation:
        raise ValueError("presentation flags differ")
    n1 = J1.dim
    table = {key: dict(out) for key, out in J1.table.items()}
    for (i, j), out in J2.table.items():
        table[(i + n1, j + n1)] = {k + n1: c for k, c in out.items()}
    labels = None
    if J1.labels and J2.labels:
        labels = tuple(f"{s}'" for s in J1.labels) \
            + tuple(f"{s}''" for s in J2.labels)
    return FinSuperAlg(
        J1.parities + J2.parities, J1.product_parity, table, labels,
        anticommutative_presentation=J1.anticommutative_presentation)


def _inverse(P):
    """The inverse of a square Fraction matrix by Gauss-Jordan elimination,
    or None when it is singular."""
    n = len(P)
    rows = [list(P[i]) + [F(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def conjugate(J: FinSuperAlg, rng: random.Random,
              density: float) -> FinSuperAlg:
    """J in the basis e'_a = sum_i P[i][a] e_i for a random even integer P:
    each diagonal entry is 1, 2 or -1, and each off-diagonal entry between
    two basis vectors of one parity is drawn from -2..2 with probability
    density (0 otherwise); P is drawn again until it is invertible.  Each
    product e'_a e'_b is written back in the new basis through P^-1; an
    anticommutative entry's stored partner is conjugated as it is, since an
    even P commutes with the twist by parity.  An isomorphic algebra whose
    table is most often not monomial, so a fixture for invariance tests."""
    n, pars = J.dim, J.parities
    Q = None
    while Q is None:
        P = [[F(rng.choice((1, 2, -1))) if i == a
              else F(rng.randint(-2, 2)) if pars[i] == pars[a]
              and rng.random() < density else F(0)
              for a in range(n)] for i in range(n)]
        Q = _inverse(P)
    table = {}
    for a in range(n):
        for b in range(a, n):
            old: dict = {}
            for i in range(n):
                for j in range(n):
                    if P[i][a] and P[j][b]:
                        for k, c in J.product(i, j).items():
                            old[k] = old.get(k, 0) + P[i][a] * P[j][b] * c
            new = {m: sum(Q[m][k] * c for k, c in old.items())
                   for m in range(n)}
            table[(a, b)] = {m: c for m, c in new.items() if c}
    return FinSuperAlg(
        pars, J.product_parity, table,
        anticommutative_presentation=J.anticommutative_presentation)
