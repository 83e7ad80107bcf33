"""Catalog entries: their closure outputs (Str, R, the graded expansion and
the ideal spot checks) and the entry points make and registry_listing."""
from fractions import Fraction as F

import pytest

from superrigid import catalog
from superrigid.catalog import (
    CatalogError,
    FiniteEntry,
    elem_add,
    ideal_spot_checks,
    make,
    registry_listing,
)
from superrigid.jets import Jet
from superrigid.linalg import Subspace, _accept
from superrigid.walg import FinSuperAlg, check_admissible_findim, is_rigid, tkk


# JW_0_8 (24/24) fails its rigidity check and is deliberately not pinned.
@pytest.mark.parametrize("name, dim_str, dim_r", [
    ("JS_0_2", 3, 4),
    ("LW_0_2", 4, 4),
    ("JW_0_4", 10, 8),
    ("JS_0_8", 20, 16),
    ("JS_0_16", 48, 48),
])
def test_rigidity_dims(name, dim_str, dim_r):
    rep = is_rigid(make(name).algebra)
    assert (rep.dim_str, rep.dim_r) == (dim_str, dim_r)
    assert rep.rigid and rep.witness is None


def test_jw_0_4_graded_expansion():
    G = tkk(make("JW_0_4").algebra, depth_cap=4)
    assert G.dims == {-1: 4, 0: 10, 1: 8, 2: 2, 3: 0}
    assert G.terminated
    assert check_admissible_findim(G).admissible


# JW_0_8 fails its degree-one condition along with its rigidity check and is
# deliberately not pinned.
GRADED = {
    "JS_0_2": ({-1: 2, 0: 3, 1: 4, 2: 5, 3: 6, 4: 7}, False),
    "LW_0_2": ({-1: 2, 0: 4, 1: 4, 2: 4, 3: 4, 4: 4}, False),
    "JS_0_8": ({-1: 8, 0: 20, 1: 16, 2: 5, 3: 0}, True),
    "JS_0_16": ({-1: 16, 0: 48, 1: 48, 2: 17, 3: 0}, True),
}


@pytest.mark.parametrize("name", GRADED)
def test_graded_expansion(name):
    G = tkk(make(name).algebra, depth_cap=4)
    assert (G.dims, G.terminated) == GRADED[name]
    assert check_admissible_findim(G).admissible


def test_spot_check_is_two_sided():
    # o.a = x and o.b = y: left products with the seed a + b give x + y,
    # right products give x - y, so only both sides reach x and y.
    J = FinSuperAlg((0, 1, 1, 1, 0), 0, {(2, 0): {3: 1}, (2, 1): {4: 1}})
    rep = ideal_spot_checks(FiniteEntry("toy", J), seeds=[{0: 1, 1: 1}])
    (seed,) = rep.seeds
    assert (seed.dim, seed.reached, seed.targets) == (3, 2, 5)


# (dim, reached, targets) for each default seed, for all 18 fixed oracle
# entries; parameters are probed as registry_listing does.
SPOT_REACH = {
    "JS_1_1": [(4, 3, 3), (0, 0, 3)], "JSHO_2_2": [(20, 12, 12), (0, 0, 12)],
    "JSKO_1_2": [(8, 6, 6), (0, 0, 6)], "JS_1_8": [(32, 24, 24), (0, 0, 24)],
    "LW_1_2": [(8, 6, 6), (0, 0, 6)], "LHO_1_2": [(7, 5, 5), (0, 0, 5)],
    "LSHOp_2_2": [(19, 11, 11), (0, 0, 11)],
    "LSKOp_2_4": [(80, 27, 27), (0, 0, 27)],
    "LSKOp_1_2": [(8, 6, 6), (0, 0, 6)], "LHa_1_2": [(7, 5, 5), (0, 0, 5)],
    "LWa_1_2": [(8, 6, 6), (0, 0, 6)], "LWa_2_2": [(20, 12, 12), (0, 0, 12)],
    "LSa_2_2": [(20, 12, 12), (0, 0, 12)], "LS_1_3": [(12, 9, 9), (0, 0, 9)],
    "LHOa_3_1": [(19, 9, 9), (0, 0, 9)],
    "LSHOa_4_1": [(34, 14, 14), (0, 0, 14)],
    "LKO_2_1": [(10, 6, 6), (0, 0, 6)],
    "LSKOa_3_1": [(20, 10, 10), (0, 0, 10)],
}


def probe(name):
    """The entry made with the parameters registry_listing probes."""
    params = {r["name"]: r["params"] for r in registry_listing()}[name]
    kw = {"alpha": F(0)} if "alpha" in params else {}
    if "beta" in params:
        kw["beta"] = F(1, 2)
    return make(name, **kw)


@pytest.mark.parametrize("name", SPOT_REACH)
def test_spot_reach(name):
    rep = ideal_spot_checks(probe(name))
    assert [(s.dim, s.reached, s.targets) for s in rep.seeds] == SPOT_REACH[name]
    assert rep.passed


def unbounded_closure(seed, maps):
    """closure_under without its saturation stop: every queued vector goes
    through every map."""
    rows = dict(seed._by_pivot)
    queue = list(seed.rows)
    for v in queue:
        for m in maps:
            r = _accept(rows, m(v))
            if r:
                queue.append(r)
    return Subspace(rows)


# Entries that drop the unit monomial from one slot.  A seed holding it has
# a coordinate that no truncated product reaches, so the closure's bound must
# count the seed's keys as well as the window's.
@pytest.mark.parametrize("name", ["LHO_1_2", "LSHOp_2_2", "LHa_1_2"])
def test_spot_seed_outside_window_coordinates(name, monkeypatch):
    entry = probe(name)
    ((slot, (unit,)),) = entry.excluded.items()
    outside = {slot: Jet(entry.ambient, {unit: F(1)})}
    seeds = [outside, elem_add(entry.basis(3)[-1], outside),
             elem_add(entry.basis(3)[0], outside)]
    got = ideal_spot_checks(entry, seeds=seeds)
    # The reference has neither the left-first walk nor the saturation stop.
    calls = []

    def unbounded_ideal(seed, lefts, rights, full_dim):
        calls.append(seed)
        return unbounded_closure(seed, list(lefts) + list(rights))

    monkeypatch.setattr(catalog, "ideal_closure", unbounded_ideal)
    assert got == ideal_spot_checks(entry, seeds=seeds)
    assert len(calls) == len(seeds)


FINITE = {"JS_0_2", "JW_0_4", "JW_0_8", "JS_0_8", "JS_0_16", "LW_0_2"}

# The fixed oracle entries, the family instances next to them and the finite
# entries.  Family instances: beta = 1/3 for LSKO_1_2, none for the others.
VERIFIED = list(SPOT_REACH) + [
    "OJP_1_1", "LP_1_1", "OJP_2_2", "LP_2_2", "LSHO_2_2", "LSKO_1_2",
] + sorted(FINITE)


@pytest.mark.parametrize("name", VERIFIED)
def test_verify_entry(name):
    if name in FINITE:
        entry = make(name)
    elif name in SPOT_REACH:
        entry = probe(name)
    else:
        entry = make(name, **({"beta": F(1, 3)} if name == "LSKO_1_2" else {}))
    rep = catalog.verify_entry(entry)
    assert rep.name == name
    if name == "JW_0_8":
        # Str and R are both 24-dimensional, but the one-step orbit is not:
        # the entry fails its own rigidity check, and that stays visible.
        assert rep.passed is False
        assert (rep.stats["dim_str"], rep.stats["dim_r"]) == (24, 24)
    else:
        assert rep.passed, [c for c in rep.checks if not c.passed]


def test_registry_kinds():
    rows = registry_listing()
    assert {r["name"] for r in rows if r["kind"] == "finite"} == FINITE
    assert {r["name"] for r in rows if r["kind"] == "oracle"
            and "<" not in r["name"]} == set(SPOT_REACH)
    assert {r["kind"] for r in rows} == {"finite", "oracle"}


@pytest.mark.parametrize("name, kw, takes", [
    ("JS_1_8", {"beta": 2}, "takes alpha, not beta"),
    ("JS_0_2", {"alpha": 5}, "takes no parameters, not alpha"),
    ("OJP_1_1", {"beta": 3}, "takes no parameters, not beta"),
    ("LSKO_1_2", {"alpha": 1, "beta": 3}, "takes beta, not alpha"),
])
def test_make_rejects_parameters_not_taken(name, kw, takes):
    with pytest.raises(CatalogError, match=f"{name} {takes}"):
        make(name, **kw)


@pytest.mark.parametrize("spelling, name, kw", [
    ("LHa_2_2", "LHa_1_2", {}),
    ("JSa(1,8)", "JS_1_8", {}),
    ("LSKO'(1,2)", "LSKOp_1_2", {"beta": F(1, 2)}),
])
def test_make_aliases(spelling, name, kw):
    assert make(spelling, **kw).name == name
