"""The series product of OjpSpace: the one-bracket product against the
split-form product it replaced, the LP rule against OJP's product, and the
operator-relation suite's tables and input checks."""
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_jet
from superrigid import catalog
from superrigid.brackets import Pairing, paired_bracket
from superrigid.catalog import (
    CatalogError,
    OjpSpace,
    _sgn,
    elem_clean,
    make,
    ojp_probe_pairs,
    ojp_relation_suite,
    verify_entry,
)
from superrigid.jets import Jet


# The library's split-form series product before it became one contact
# bracket, verbatim but for self -> space, space.pbracket(...) ->
# _pbracket(space, ...) and space.split(...) -> _split(space, ...).  Its
# bracket pairs x_i with xi_i for i <= n only, so the series variable and the
# marker ride along as passengers; both helpers build their own pairing and
# split, and read nothing of the library's but the engine and the space's
# generators.

def _pbracket(space: OjpSpace, f: Jet, g: Jet) -> Jet:
    """Odd Poisson bracket of the coefficient algebra; the series variable
    and the marker ride along as passengers."""
    n = space.n
    idx = tuple(range(1, n + 1))
    pairing = Pairing(mixed=tuple(zip(idx, idx)), euler=(idx, idx),
                      contact=("xi", n + 2) if space.has_d else None)
    return paired_bracket(pairing, f, g)


def _split(space: OjpSpace, f: Jet) -> tuple[Jet, Jet]:
    """Write f = plain + marker * rest; returns (plain, rest)."""
    j = space.n + 1
    plain = {m: c for m, c in f.terms.items() if j not in m[1]}
    rest = {m: c for m, c in f.terms.items() if j in m[1]}
    return Jet(space.ambient, plain), Jet(space.ambient, rest).d_odd(j)


def _product_reference(space: OjpSpace, u: Jet, v: Jet) -> Jet:
    out = Jet.zero(space.ambient)
    for pu_part, pu in u.parity_parts():
        f1, g1 = _split(space, pu_part)
        for pv_part, pv in v.parity_parts():
            f2, g2 = _split(space, pv_part)
            if not f1.is_zero() and not f2.is_zero():
                out = out + _pp(space, f1, pu, f2)
            if not f1.is_zero() and not g2.is_zero():
                out = out + _pe(space, f1, pu, g2)
            if not g1.is_zero() and not f2.is_zero():
                out = out + _pe(space, f2, pv, g1).scale(_sgn(pu & pv))
            if not g1.is_zero() and not g2.is_zero():
                out = out + _ee(space, g1, pu ^ 1, g2)
    return out


def _pp(space: OjpSpace, f1: Jet, p1: int, f2: Jet) -> Jet:
    res = _pbracket(space, f1, f2).scale(_sgn(p1 + 1))
    return res + (space.eta() * (f1 * f2)).scale(2)


def _pe(space: OjpSpace, f: Jet, p: int, g: Jet) -> Jet:
    res = space.eta() * _pbracket(space, f, g)
    res = res - (space.dx(f) * g).scale(_sgn(p))
    res = res - (space.eta() * (space.D(f) * g)).scale(_sgn(p))
    return res


def _ee(space: OjpSpace, g1: Jet, p1: int, g2: Jet) -> Jet:
    return (space.eta() * (space.dx(g1) * g2 - g1 * space.dx(g2))
            ).scale(_sgn(p1))


SPACES = st.sampled_from([(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3),
                         (3, 3)])


def _factor(space, rng, parity):
    """A random jet of the given parity (None: any, often mixed) with the
    marker in some terms, zero one time in five."""
    if rng.random() < 0.2:
        return Jet.zero(space.ambient)
    return random_jet(space.ambient, rng, parity=parity,
                      n_terms=rng.randint(1, 5))


@given(st.integers(0, 2**30), SPACES, st.sampled_from([0, 1, None]),
       st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_prepared_left_matches_one_shot_product(seed, nm, pu, n):
    """One prepared u against a run of v's: each result equals the split-form
    product under ==, so nothing kept for one v leaks into the next."""
    space = OjpSpace(*nm)
    rng = random.Random(seed)
    u = _factor(space, rng, pu)
    left = space.left(u)
    for _ in range(n):
        v = _factor(space, rng, rng.choice([0, 1, None]))
        assert left(v) == _product_reference(space, u, v)


@given(st.integers(0, 2**30), SPACES)
@settings(max_examples=60, deadline=None)
def test_lp_rule_is_signed_ojp_product(seed, nm):
    """LP_n_m's product is (-1)^p(u) times OJP_n_m's, part by part of u."""
    lp, ojp = (make(f"{base}_{nm[0]}_{nm[1]}") for base in ("LP", "OJP"))
    rng = random.Random(seed)
    u, v = _factor(ojp.space, rng, None), _factor(ojp.space, rng, None)
    zero = Jet.zero(ojp.space.ambient)
    want = zero
    for part, p in u.parity_parts():
        uv = ojp.product({"j": part}, {"j": v}).get("j", zero)
        want = want + uv.scale(_sgn(p))
    assert lp.product({"j": u}, {"j": v}) == elem_clean({"j": want})


@pytest.mark.parametrize("n, m", [
    ("1", 1), (1.5, 1), (True, 2), (1, True), (1, 2.0), (None, 0),
    (-1, 0), (1, 3),
])
def test_carrier_rejects_bad_indices(n, m):
    with pytest.raises(CatalogError, match="carrier needs integers"):
        OjpSpace(n, m)


@pytest.mark.parametrize("n, m", [(0, 0), (0, 1), (2, 3)])
def test_carrier_accepts_integer_indices(n, m):
    space = OjpSpace(n, m)
    assert (space.n, space.m, space.has_d) == (n, m, m == n + 1)


@pytest.mark.parametrize("bad", ["mixed", "zero"])
def test_relation_suite_rejects_bad_probe(bad):
    space = OjpSpace(1, 1)
    pairs = ojp_probe_pairs(space, 6)
    amb = space.ambient
    probe = (Jet.x(amb, 1) + Jet.xi(amb, 1) if bad == "mixed"
             else Jet.zero(amb))
    shown = re.escape("xi1 + x1" if bad == "mixed" else "0")
    for probe_pairs in ([(pairs[0][0], probe)], [(probe, pairs[0][1])]):
        with pytest.raises(CatalogError, match=f"got {shown}$"):
            ojp_relation_suite(space, pairs[:2], probe_pairs)


@pytest.mark.parametrize("nm", [(1, 1), (2, 2), (1, 2)])
def test_relation_suite_makes_each_product_once(nm, monkeypatch):
    """One suite call prepares each left factor once and evaluates each
    product u o v once, equal jets counting as the same factor."""
    prepared, evaluated = [], []
    left = OjpSpace.left

    def counted(self, u):
        prepared.append(u)
        inner = left(self, u)

        def product(v):
            evaluated.append((u, v))
            return inner(v)
        return product
    monkeypatch.setattr(OjpSpace, "left", counted)
    space = OjpSpace(*nm)
    pairs = ojp_probe_pairs(space, 6)
    assert ojp_relation_suite(space, pairs, pairs[:3]).passed
    assert prepared and evaluated
    assert len(set(prepared)) == len(prepared)
    assert len(set(evaluated)) == len(evaluated)


class _NoEtaTerm(OjpSpace):
    """The series product less its first term, 2 eta u v: a wrong product
    that the relation suite must catch."""

    def terms(self, u, sign=1):
        return super().terms(u, sign)[1:]


@pytest.mark.parametrize("nm, failed", [
    ((1, 1), {"op_mul_mul", "op_mul_left", "unit_product", "nested_left_left",
              "nested_left_mul", "nested_mul_left", "nested_mul_mul"}),
    ((1, 2), {"unit_product"}),
    ((2, 2), {"op_mul_mul", "op_mul_left", "unit_product"}),
])
def test_relation_suite_fails_without_the_eta_term(nm, failed):
    """The suite can fail: without 2 eta u v, exactly these identities fail
    on the probes that verify_entry uses."""
    space = _NoEtaTerm(*nm)
    pairs = ojp_probe_pairs(space, 6)
    rep = ojp_relation_suite(space, pairs, pairs[:3])
    assert {k for k, ok in rep.results.items() if not ok} == failed
    assert set(rep.failures) == failed and not rep.passed


def test_verify_entry_reports_failed_operator_relations(monkeypatch):
    monkeypatch.setattr(catalog, "OjpSpace", _NoEtaTerm)
    rep = verify_entry(make("OJP_1_1"))
    assert {c.name: c.passed for c in rep.checks}["operator_relations"] is False
    assert not rep.passed
