"""Catalog entries: their closure outputs (Str, R, the graded expansion and
the ideal spot checks) and the entry points make and registry_listing."""
import hashlib
from fractions import Fraction as F

import pytest

from superrigid import brackets, catalog, linalg
from superrigid.catalog import (
    CatalogError,
    OracleEntry,
    ideal_spot_checks,
    make,
    normalize_name,
    product_from_mu,
    registry_listing,
)
from superrigid.fields import (FamilyRealization, GradingSpec, VectorField,
                               parse_field)
from superrigid.jets import Ambient, Jet
from superrigid.linalg import (Subspace, _accept, closure_under,
                               ideal_closure, nullspace, span_reduce)
from superrigid.walg import (FinSuperAlg, _one_step_orbit,
                             check_admissible_findim, is_rigid, tkk)


def elem_add(a, b):
    out = dict(a)
    for s, f in b.items():
        out[s] = out[s] + f if s in out else f
    return out


def elem_scale(a, c):
    return {s: f.scale(c) for s, f in a.items()}


# JW_0_8 fails its rigidity check; test_jw_0_8_orbit_deficit pins how.
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


def test_jw_0_8_orbit_deficit():
    # Str and R are both 24-dimensional, but the one-step orbit of the
    # product under Str is 23: JW_0_8 fails its own rigidity check, and the
    # failure stays visible.
    J = make("JW_0_8").algebra
    rep = is_rigid(J)
    assert (rep.dim_str, rep.dim_r, rep.rigid) == (24, 24, False)
    assert _one_step_orbit(J.mu, rep.str_space).dim == 23
    assert rep.witness is not None


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


# The pinned expansion of each graded row's entry.
ROW_TKK = {
    "JW_0_4": {-1: 4, 0: 10, 1: 8, 2: 2, 3: 0},
    "JW_0_8": {-1: 8, 0: 24, 1: 24, 2: 8, 3: 0},
    "JS_0_8": GRADED["JS_0_8"][0],
    "JS_0_16": GRADED["JS_0_16"][0],
}


def test_jw_0_4_graded_expansion():
    G = tkk(make("JW_0_4").algebra, depth_cap=4)
    assert G.dims == ROW_TKK["JW_0_4"]
    assert G.terminated
    assert check_admissible_findim(G).admissible


def test_jw_0_8_graded_expansion():
    # The expansion is W(0|4) (see test_graded_row_certificate), but its
    # degree-one condition fails along with the rigidity check.
    G = tkk(make("JW_0_8").algebra, depth_cap=4)
    assert (G.dims, G.terminated) == (ROW_TKK["JW_0_8"], True)
    rep = check_admissible_findim(G)
    assert (rep.degree_one_spanned, rep.degree_zero_generated,
            rep.chain_consistent) == (False, True, True)


@pytest.mark.parametrize("name", catalog._GRADED)
def test_graded_row_certificate(name):
    family, weights, _ = catalog._GRADED[name]
    spec = GradingSpec((), weights)
    real = FamilyRealization(family, spec)
    # The entry's expansion is the row's family, component by component.
    assert ROW_TKK[name] == {k: len(real.basis_of_degree(k, 0))
                             for k in range(-1, 4)}
    # mu -> table is injective on the even part of g_1, so the row's mu is
    # the only one that gives the entry's table.
    even = [x for x in real.basis_of_degree(1, 0) if real.parity(x) == 0]

    def table(i):
        cells = product_from_mu(family, spec, even[i]).table.items()
        return {(ij, k): c for ij, cell in cells for k, c in cell.items()}

    assert even and nullspace(range(len(even)), table) == []


def test_spot_check_is_two_sided():
    # o.a = x and o.b = y: left products with the seed a + b give x + y,
    # right products give x - y, so only both sides reach x and y.
    J = FinSuperAlg((0, 1, 1, 1, 0), 0, {(2, 0): {3: 1}, (2, 1): {4: 1}})
    units = [{i: F(1)} for i in range(J.dim)]
    lefts = lambda v: [J.mult_vec(e, v) for e in units]
    rights = lambda v: [J.mult_vec(v, e) for e in units]
    seed = span_reduce([{0: F(1), 1: F(1)}])
    assert closure_under(seed, lefts).dim == 2
    closed = ideal_closure(seed, lefts, rights, full_dim=J.dim)
    assert closed.dim == 3
    assert [i for i, e in enumerate(units) if closed.contains(e)] == [3, 4]


def test_spot_check_rejects_finite_entry():
    with pytest.raises(CatalogError, match="walg.is_simple"):
        ideal_spot_checks(make("JS_0_2"))


@pytest.mark.parametrize("order", [0, -1, 2.5, "3", True, None])
def test_spot_check_rejects_bad_order(order):
    with pytest.raises(CatalogError, match="order must be an integer >= 1"):
        ideal_spot_checks(make("JS_1_1"), order=order)


@pytest.mark.parametrize("order", [-1, 2.5, "3", True])
@pytest.mark.parametrize("name", ["JS_1_1", "JS_0_2"])
def test_verify_entry_rejects_bad_order(name, order):
    with pytest.raises(CatalogError, match="order must be an integer >= 0"):
        catalog.verify_entry(make(name), order=order)


def test_smallest_orders():
    # Order 0 samples constants only; order 1 spot-checks degree-0 targets.
    assert catalog.verify_entry(make("JS_1_1"), order=0).order == 0
    rep = ideal_spot_checks(make("JS_1_1"), order=1)
    assert rep.order == 1 and all(s.targets for s in rep.seeds)
    # LHOa_3_1 has nothing of degree 0: an empty window is an error, not a
    # vacuous pass.
    entry = make("LHOa_3_1", alpha=0)
    with pytest.raises(CatalogError, match="no basis elements of degree <= 0"):
        catalog.verify_entry(entry, order=0)
    with pytest.raises(CatalogError, match="no window elements of degree <= 0"):
        ideal_spot_checks(entry, order=1)


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
    through maps, which lists its images under every map."""
    rows = dict(seed._by_pivot)
    queue = list(seed.rows)
    for v in queue:
        for w in maps(v):
            r = _accept(rows, w)
            if r:
                queue.append(r)
    return Subspace(rows)


def test_spot_check_converts_each_vector_once(monkeypatch):
    # LSKOp_2_4's default spot check has 40 partners.  Each call of the
    # closure's maps converts its vector once, and a left call takes each
    # operand of the vector's slots once for all the partners.
    entry = probe("LSKOp_2_4")
    calls = []  # per map call: its side, from_vec count and operand keys
    from_vec, operand = OracleEntry.from_vec, brackets._operand

    def counted_from_vec(self, v):
        if calls:
            calls[-1][1].append(v)
        return from_vec(self, v)

    def counted_operand(h, key):
        if calls:
            calls[-1][2].append((tuple(sorted(h.terms.items())), key))
        return operand(h, key)

    def opened(side, maps):
        def call(v):
            calls.append((side, [], []))
            return maps(v)
        return call

    def spy(seed, lefts, rights, full_dim):
        return linalg.ideal_closure(seed, opened("left", lefts),
                                    opened("right", rights), full_dim)

    monkeypatch.setattr(OracleEntry, "from_vec", counted_from_vec)
    monkeypatch.setattr(brackets, "_operand", counted_operand)
    monkeypatch.setattr(catalog, "ideal_closure", spy)
    rep = ideal_spot_checks(entry)
    assert rep.passed and rep.seeds[0].dim == 80
    assert any(side == "left" for side, _, _ in calls)
    for side, converted, operands in calls:
        assert len(converted) == 1
        if side == "left":
            assert operands and len(set(operands)) == len(operands)


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
        return unbounded_closure(seed, lambda v: [*lefts(v), *rights(v)])

    monkeypatch.setattr(catalog, "ideal_closure", unbounded_ideal)
    assert got == ideal_spot_checks(entry, seeds=seeds)
    assert len(calls) == len(seeds)


# One entry per carrier kind: plain, an ``excluded`` monomial, a kernel.
# The window cuts each seed at the spot-check order, so terms above it
# change nothing the closure reaches.
@pytest.mark.parametrize("name", ["JS_1_1", "LHO_1_2", "LSKOp_2_4"])
def test_spot_seed_terms_above_window_are_cut(name):
    entry = probe(name)

    def deg(a):
        return max(f.even_degree() for f in a.values())
    high = [b for b in entry.basis(5) if deg(b) > 3]
    above = elem_add(high[0], elem_scale(high[-1], F(-2, 3)))
    seeds = [entry.basis(3)[0], {}, entry.basis(3)[-1]]
    plain = ideal_spot_checks(entry, seeds=seeds, order=3)
    cut = ideal_spot_checks(entry, [elem_add(s, above) for s in seeds], 3)
    assert ([(s.dim, s.reached, s.targets) for s in cut.seeds]
            == [(s.dim, s.reached, s.targets) for s in plain.seeds])
    assert plain.seeds[0].complete and plain.seeds[1].dim == 0


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
        # The failure says why: R's dimension and the witness, a related
        # product outside the one-step orbit, by pair with basis labels.
        rigid = rep.checks[-1]
        assert (rigid.name, rigid.passed) == ("rigid", False)
        assert rigid.detail == (
            "R has dim 24; outside the one-step orbit: "
            "(xi4*dxi1, dxi2) -> -xi3*xi4*dxi1; "
            "(dxi2, xi4*dxi2) -> -xi3*xi4*dxi2")
        assert {"dxi2", "xi4*dxi1", "xi4*dxi2", "xi3*xi4*dxi1",
                "xi3*xi4*dxi2"} <= set(entry.algebra.labels)
    else:
        assert rep.passed, [c for c in rep.checks if not c.passed]
        if name in FINITE:
            assert [c.detail for c in rep.checks] == ["", ""]


def test_registry_listing_builds_nothing(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("registry_listing built an entry")
    monkeypatch.setattr(catalog.FiniteEntry, "__init__", refuse)
    monkeypatch.setattr(catalog.OracleEntry, "__init__", refuse)
    assert len(registry_listing()) == len(catalog._FIXED) + 4


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


@pytest.mark.parametrize("value", [float("inf"), float("nan"), "x", "1/0",
                                   True, False])
@pytest.mark.parametrize("name, param", [("JS_1_8", "alpha"),
                                         ("LSKOp_1_2", "beta")])
def test_make_rejects_non_rational_parameters(name, param, value):
    with pytest.raises(CatalogError, match=f"{name}: {param} must be"):
        make(name, **{param: value})


@pytest.mark.parametrize("spelling, name, kw", [
    ("LHa_2_2", "LHa_1_2", {}),
    ("JSa(1,8)", "JS_1_8", {}),
    ("LSKO'(1,2)", "LSKOp_1_2", {"beta": F(1, 2)}),
])
def test_make_aliases(spelling, name, kw):
    assert make(spelling, **kw).name == name


# One instance of each named family.
PATTERN_INSTANCES = {
    "OJP": ("OJP_1_2", {}), "LP": ("LP_0_1", {}), "LSHO": ("LSHO_3_4", {}),
    "LSKO": ("LSKO_2_4", {"beta": F(1, 2)}),
}


@pytest.mark.parametrize("row", registry_listing(), ids=lambda r: r["name"])
def test_registry_row_builds(row):
    if "<" in row["name"]:
        name, kw = PATTERN_INSTANCES[row["name"].split("_")[0]]
        entry = make(name, **kw)
    else:
        name, entry = row["name"], probe(row["name"])
    assert (entry.name, entry.kind) == (name, row["kind"])
    assert entry.summary == row["summary"]


@pytest.mark.parametrize("name, kw, reason", [
    ("LSKOp_1_2", {"beta": 0}, "beta must avoid"),
    ("LSKOp_1_2", {"beta": 1}, "beta must avoid"),
    ("LSKOp_1_2", {"beta": 3}, "beta must avoid"),
    ("LSKOp_1_2", {"beta": F(5, 2)}, "beta must avoid"),
    ("LSKOa_3_1", {"alpha": 1, "beta": F(1, 3)}, "outside the family"),
    ("LSKO_1_2", {"beta": 2}, "outside the family"),
    ("LSKO_2_5", {"beta": F(1, 2)}, "LSKO_2_5 is outside its family"),
    ("LSHO_1_1", {}, "LSHO_1_1 is outside its family"),
    ("OJP_1_3", {}, "OJP_1_3 is outside its family"),
    ("LSHO_1.5_2", {}, "unknown entry"),
    ("OJP_n_m", {}, "unknown entry"),
])
def test_make_rejects_out_of_range(name, kw, reason):
    with pytest.raises(CatalogError, match=reason):
        make(name, **kw)


def decorated(name):
    """The paper's spelling of a registry name: primes, alphas and
    parenthesized indices."""
    base, n, m = name.split("_")
    if base.endswith("p"):
        base = base[:-1] + "′"
    elif base.endswith("a"):
        base = base[:-1] + "α"
    return f"{base}({n}, {m})"


@pytest.mark.parametrize("name", [r["name"] for r in registry_listing()
                                  if "<" not in r["name"]]
                         + [n for n, _ in PATTERN_INSTANCES.values()])
def test_normalize_name_round_trips(name):
    assert normalize_name(name) == name
    assert normalize_name(decorated(name)) == name


# W(0|3) graded by odd weights (1, 1, 0), with an even mu of degree one.
W03 = Ambient(0, 3)
W03_SPEC = GradingSpec((), (1, 1, 0))


def w03_d(j):
    return VectorField.partial(W03, "xi", j)


def w03_xi(*js):
    out = Jet.one(W03)
    for j in js:
        out = out * Jet.xi(W03, j)
    return out


def test_product_from_mu():
    mu = w03_xi(1, 2, 3) * w03_d(1) + w03_xi(2) * w03_d(3)
    alg = product_from_mu("W", W03_SPEC, mu)
    basis = [w03_d(1), w03_xi(3) * w03_d(1), w03_d(2), w03_xi(3) * w03_d(2)]
    assert alg.labels == ("dxi1", "xi3*dxi1", "dxi2", "xi3*dxi2")
    assert alg.parities == (1, 0, 1, 0)
    assert alg.product(0, 2) == {1: -1}
    # Every cell, both orders, is [[mu, x], y] in g_-1.
    real = FamilyRealization("W", W03_SPEC)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            got = VectorField.zero(W03)
            for k, c in alg.product(i, j).items():
                got = got + basis[k].scale(c)
            assert got == real.bracket(real.bracket(mu, x), y)


@pytest.mark.parametrize("mu, reason", [
    (w03_xi(1, 2) * w03_d(1) + w03_xi(1) * w03_d(3),
     "mu must be parity-homogeneous"),
    (w03_xi(1, 2, 3) * w03_d(1) + w03_xi(3) * w03_d(3),
     r"pure degree 1, found degrees"),
    (w03_xi(1, 3) * w03_d(3), "mu must be parity-homogeneous and even"),
])
def test_product_from_mu_rejects(mu, reason):
    with pytest.raises(CatalogError, match=reason):
        product_from_mu("W", W03_SPEC, mu)


# W(0|2) with odd weights (2, 1), whose g_-2 holds dxi1; W(1|3) with odd
# weights (1, 1, 0) and a weight-0 even generator, cut at x-degree 4; S(0|3)
# with odd weights (-1, 0, 0), whose g_-1 holds -xi1*xi2*dxi2 + xi1*xi3*dxi3.
W13 = Ambient(1, 3)


@pytest.mark.parametrize("family, spec, mu, reason", [
    ("W", GradingSpec((), (2, 1)),
     parse_field([("xi1", "dxi2")], Ambient(0, 2)), "g_-2 must vanish"),
    ("W", GradingSpec((0,), (1, 1, 0)),
     parse_field([("x1*xi1*xi2*xi3", "dxi1")], W13),
     r"\[\[mu, dxi1\], x1\^4\*dxi2\] leaves the degree -1 window"),
    ("S", GradingSpec((), (-1, 0, 0)), w03_xi(2) * w03_d(1),
     "is not a monomial"),
])
def test_product_from_mu_rejects_grading(family, spec, mu, reason):
    with pytest.raises(CatalogError, match=reason):
        product_from_mu(family, spec, mu)


# Bad input raises CatalogError: never an AttributeError, a failure deep
# inside a product, or a report for a seed from another ambient.
@pytest.mark.parametrize("mu", [None, w03_xi(1),
                                parse_field([("xi1", "dxi1")], Ambient(0, 2))],
                         ids=["none", "jet", "other_ambient"])
def test_product_from_mu_rejects_non_fields(mu):
    with pytest.raises(CatalogError,
                       match=r"mu must be a VectorField on Ambient\(0, 3\)"):
        product_from_mu("W", W03_SPEC, mu)


@pytest.mark.parametrize("name", [5, None, ("JS_1_1",)])
def test_make_rejects_non_string_names(name):
    with pytest.raises(CatalogError, match="entry names are strings"):
        make(name)


# (left factor, right factor, message) on OJP_1_1, whose ambient is
# Ambient(2, 2); x stands for the jet x1 there, y for 1 on Ambient(2, 0).
BAD_ELEMENTS = {
    "left_value": ({"j": 5}, {"j": 5},
                   r"slot 'j' needs a jet on Ambient\(2, 2\), got 5"),
    "right_value": ({"j": "x"}, {"j": 5}, "got 5"),
    "right_ambient": ({"j": "x"}, {"j": "y"}, r"got a jet on Ambient\(2, 0\)"),
    "left_slot": ({"k": "x"}, {"j": "x"}, r"has slots \('j',\), not 'k'"),
    "right_slot": ({"j": "x"}, {"k": "x"}, r"has slots \('j',\), not 'k'"),
    "right_not_dict": ({"j": "x"}, "x", "elements are slot dicts"),
}


@pytest.mark.parametrize("case", BAD_ELEMENTS)
def test_oracle_product_rejects_bad_elements(case):
    entry = make("OJP_1_1")
    jets = {"x": Jet.x(entry.ambient, 1), "y": Jet.one(Ambient(2, 0))}

    def element(a):
        if isinstance(a, str):
            return jets[a]
        return {s: jets.get(f, f) for s, f in a.items()}

    a, b, match = BAD_ELEMENTS[case]
    with pytest.raises(CatalogError, match=match):
        entry.product(element(a), element(b))


@pytest.mark.parametrize("seeds, match", [
    ([{"field": Jet.one(Ambient(2, 0))}], r"got a jet on Ambient\(2, 0\)"),
    ([{"fun": Jet.one(Ambient(1, 0))}], r"has slots \('field',\), not 'fun'"),
    ([{"field": F(1)}], "got Fraction"),
    ([], "needs a seed"),
], ids=["other_ambient", "unknown_slot", "not_a_jet", "no_seed"])
def test_spot_check_rejects_bad_seeds(seeds, match):
    with pytest.raises(CatalogError, match=match):
        ideal_spot_checks(make("JS_1_1"), seeds=seeds)


# sha256 over sorted(to_vec(a o b).items()) for every ordered pair of
# entry.basis(2): the exact structure constants of each oracle entry at the
# parameters the registry covers, and of the family instances verified below.
# Each coefficient is hashed as a Fraction, so the digest pins values, not
# whether a whole one is stored as an int.
STRUCTURE_DIGESTS = [
    ("JS_1_1", {},
     "21d59018a62bf4fa0c583471e0f94f4ba98ee9f3145b53358dcc29c04c2b9622"),
    ("JSHO_2_2", {},
     "7daacd3a45a973e3f6162deb74a55eba4d720214cd86f836792d7337b480a7a0"),
    ("JSKO_1_2", {},
     "9e7010bef93d04018cd6bddeaa0da5675db04cb8bbee80ada1d2e23922bee1d7"),
    ("LW_1_2", {},
     "000a78f65972b50fdab80c3f92d2bacddc2fec27223e924ef79f1a31e9088abb"),
    ("LHO_1_2", {},
     "e0c148c0d9ef354f0b12b6aca15488daa0a82a5e547147e0e7332163953b8365"),
    ("LSHOp_2_2", {},
     "271e87fc9fc91d939c4546a0e070ecfadc7c9ac258d8a3ed861eb5045e0093ce"),
    ("LSKOp_2_4", {},
     "00e0d87b37c6748679a751fdddd11e9e4271766f46fbeeecfadaac510066e3cb"),
    ("LS_1_3", {},
     "b4eda98f3e3ed5af7a2eb33fc69a3f0e0490551f2992c4a4ebc00495d8418ab1"),
    ("LKO_2_1", {},
     "b47e477c6358b170a78fee0538ffde36b0ac30471e9a6d73bae41cdc00af6d38"),
    ("JS_1_8", {"alpha": F(0)},
     "6ce0161423ffd2263b480dc1234783d449d026c2ad1f44da472d0f74f457f473"),
    ("JS_1_8", {"alpha": F(1)},
     "96d60b851e5034b89ce4ae384886de17fff8c794de83503a02440fd0f65f2e17"),
    ("LHa_1_2", {"alpha": F(0)},
     "a83ae7c5638bf88c2f14dbabdc8c03c4fc13c11941940da1b29f2f626b5a051f"),
    ("LHa_1_2", {"alpha": F(1)},
     "40a21848fc58aa9a602a6dbcd34ca587bc475e3b9ae03ee4e74de1d309de712b"),
    ("LWa_1_2", {"alpha": F(0)},
     "99369bc11f5cdaf2c28c421b750c29e6c7963b5e9cd161c3132333a1e25d55a1"),
    ("LWa_1_2", {"alpha": F(1)},
     "6dcf5ac1dadb3945951afc99042d669ec8cc50f4ea9330afbbd93abaa239c499"),
    ("LWa_2_2", {"alpha": F(0)},
     "d900ca498d4d454cd09f6fbc2242f773d3c401eac925517120a4160db4f5b973"),
    ("LWa_2_2", {"alpha": F(1)},
     "54804d7c452586b40a3ad71ef28cafb39d8e2ea4597ea189da098de49c7c4c68"),
    ("LSa_2_2", {"alpha": F(0)},
     "cdc0b83cf2644dfbb1d5ea6d0166228800a27d886f9b868e4ecc64153c10a881"),
    ("LSa_2_2", {"alpha": F(1)},
     "965363eaa94b76e08e713712e522e7c832ff19e39e5f9adf154b9e01968ea918"),
    ("LHOa_3_1", {"alpha": F(0)},
     "a58cbbe5c518b4b8203fe44cf54f48496bf92c973feed9c8ddd3a7ee55b3c07b"),
    ("LHOa_3_1", {"alpha": F(1)},
     "aa8e500980ed739ea7931cc40289d84ba278dc0727876789d3270f4228fe3a92"),
    ("LSHOa_4_1", {"alpha": F(0)},
     "dd8543cc34e31ba87b7012f06ece3bb82fac96b9a67a02b8c5b8afd5914e2015"),
    ("LSHOa_4_1", {"alpha": F(1)},
     "f7513da3d855335c214c88035a9fdff97934c39ca8c3fb9ccedad420b1d4a4f4"),
    ("LSKOp_1_2", {"beta": F(1, 2)},
     "d8c06d7581603922fb09d40190efa71d30f682116ea8030e6d7970066a088c97"),
    ("LSKOp_1_2", {"beta": F(3, 2)},
     "55ec48bb70a45b8e954c46725d85bd6cce34cbf604b79dbeeb9a4ad55e432c8f"),
    ("LSKOa_3_1", {"alpha": F(0), "beta": F(1, 2)},
     "98c0b6c66f0345a988cfe5ae04af262aebbe232878eb4966dbe72d1836d884ca"),
    ("LSKOa_3_1", {"alpha": F(0), "beta": F(2)},
     "f9edbdb59fed56cc6027614734fbf8ba4e336b8e972b746319dec7f7d8c8bdf7"),
    ("LSKOa_3_1", {"alpha": F(1), "beta": F(1, 2)},
     "c1f346c999bbd1c4ad76b7953943bfd27df6dfe99f9b75a08515a31e35ea1039"),
    ("LSKOa_3_1", {"alpha": F(1), "beta": F(2)},
     "24a0f46e17736b0747a6e86d2be81551c07527c56bf775522c71eb37fa0a1ea3"),
    ("OJP_1_1", {},
     "d09e2c0c38fbb3ddab142bb368dedc6fa4d0a5b7bdced9f139cf141d498ee327"),
    ("LP_1_1", {},
     "a96b4f7f09840a4f84336bef216a54843015f5a32889cc5d472a65b1e7afeafc"),
    ("OJP_2_2", {},
     "c8d9d56b7d5f309284d93dafc55a78f387c763649b166a0745614ba9266007df"),
    ("LP_2_2", {},
     "fe08d691f31e85787dcd54e332e140506a762e62ffdb9c23bed293de265fa94b"),
    ("LSHO_2_2", {},
     "1a9405c8f7e62141f82491b235588d37b34360951d60f7f21411fd64c86159e6"),
    ("LSKO_1_2", {"beta": F(1, 3)},
     "ec8985e1c3f34477168f43497795e07e35031523af7b5c589d26ee3543e1e51a"),
]


@pytest.mark.parametrize("name, kw, digest", STRUCTURE_DIGESTS)
def test_structure_constants(name, kw, digest):
    entry = make(name, **kw)
    basis = entry.basis(2)
    h = hashlib.sha256()
    for a in basis:
        for b in basis:
            vec = entry.to_vec(entry.product(a, b))
            h.update(repr(sorted((k, F(c)) for k, c in vec.items()))
                     .encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("name, kw", [(n, kw) for n, kw, _ in
                                      STRUCTURE_DIGESTS])
def test_prepared_left_matches_product(name, kw):
    # One prepared map serves every b in turn, so nothing it keeps for one
    # b may leak into the next, nor one left factor's terms into another's.
    # The sum of the basis has a part in every slot and parity.
    entry = make(name, **kw)
    basis = entry.basis(2)
    total = {}
    for a in basis:
        total = elem_add(total, a)
    elems = basis + [total]
    left = entry.left(elems)
    for b in basis:
        assert left(b) == [entry.product(a, b) for a in elems]


def with_negated_row(entry, row):
    """entry with every term of the rule of ``row`` negated."""
    rule = entry.rules[row]
    entry.rules[row] = lambda f, p: {
        s: [(t.scale(-1), op) for t, op in terms]
        for s, terms in rule(f, p).items()}
    return entry


def with_post(entry, post):
    """entry with each product a o b followed by post(a, b, a o b)."""
    left = entry.left
    entry.left = lambda elems: lambda b: [
        post(a, b, ab) for a, ab in zip(elems, left(elems)(b))]
    return entry


def check_details(rep):
    return [(c.name, c.passed, c.detail) for c in rep.checks]


def test_verify_entry_negated_mirror_row():
    entry = with_negated_row(make("LW_1_2"), ("bar", "fun"))
    assert check_details(catalog.verify_entry(entry)) == [
        ("symmetry", False, "broken at fun: 1 | bar: 1"),
        ("closure", True, "48 pairs")]


# verify_entry makes the products of its sample block a column at a time,
# so it makes (lo[5], lo[2]) before (lo[3], lo[4]).  The details must still
# name the first failing pair in sample order.
@pytest.mark.parametrize("name, symmetry, closure", [
    ("LSHO_2_2", "broken at j: xi2 | j: x2^2",
     "product of j: x2 and j: x2*xi1 leaves the carrier"),
    ("LSKOp_2_4", "broken at j: xi2 | j: x2",
     "product of j: xi2 and j: x2 leaves the carrier"),
])
def test_verify_entry_first_failure_in_sample_order(name, symmetry, closure):
    entry = make(name)
    lo = entry.basis(2)
    lo = lo[::max(1, len(lo) // 18)][:18]
    bad = {(lo[5]["j"], lo[2]["j"]), (lo[3]["j"], lo[4]["j"])}
    x1 = Jet.x(entry.ambient, 1)
    entry = with_post(entry, lambda a, b, r: elem_add(
        r, {"j": x1 * a["j"] * b["j"]}) if (a["j"], b["j"]) in bad else r)
    assert check_details(catalog.verify_entry(entry)) == [
        ("symmetry", False, symmetry), ("closure", False, closure)]


# sha256 over (parities, product_parity, anticommutative_presentation, the
# sorted table with sorted cells) of each finite entry's FinSuperAlg: its
# exact structure constants in basis order, labels left out.  Each
# coefficient is hashed as a Fraction, so the digest pins values, not types.
FINITE_DIGESTS = {
    "JS_0_2":
        "f39f0f65b991c3a0b70721439011a215f6919390ab15ed4c24542204ee84382d",
    "LW_0_2":
        "d7bcb1b36f46772ac1bd6e21aae7d349ea00eb2f192e6e4119023f1ad9d6a138",
    "JW_0_4":
        "8cbfecc771f8fdb4737362a391619b69bec3866a4156c5890c988a31e032dece",
    "JW_0_8":
        "fbaa2a071292e94a46f24fc7d0b36ed689b30ba211bc576ae86c7e132c2f97f6",
    "JS_0_8":
        "cc9ad7d182ebaaf4a02fc4574bce0ec3fd20b0c062433b84e602ffd31b51c85b",
    "JS_0_16":
        "75920c5a2256c6977cc03f86a1c77301b849cbd30f801c8c3633861bf4a9b1db",
}


@pytest.mark.parametrize("name", FINITE_DIGESTS)
def test_finite_structure_constants(name):
    alg = make(name).algebra
    table = sorted((ij, sorted((k, F(c)) for k, c in cell.items()))
                   for ij, cell in alg.table.items())
    key = (alg.parities, alg.product_parity, alg.anticommutative_presentation,
           table)
    assert hashlib.sha256(repr(key).encode()).hexdigest() == FINITE_DIGESTS[name]


# sha256 over repr([verify_entry(e, seed=s) for s in (9, 12345)]) and over
# repr(ideal_spot_checks(e)) (None for the family instances, which have no
# pinned reach): the whole reports, details and stats included.  The entries
# are the fixed oracle entries, with parameters probed as registry_listing
# probes them, then the family instances, as perfbench's oracle_window
# workload runs them.
REPORT_DIGESTS = [
    ("JS_1_1", {},
     "8234435483e0264d27eed306a215f04fbca474db7d2f33f2e14a0d54f9962d84",
     "e086330618836b4dad022bcc4d49304640bfbed116000d517c5dfe126a38a8bb"),
    ("JSHO_2_2", {},
     "a05bbf2abef7ba4f01d868d7e66593d087cdd3ceb252b344fbcdef73caca05db",
     "d1545c1c01336ae1f10e31f27d0ffe1bf1b2dbf80c8750d22c98571e2a786d80"),
    ("JSKO_1_2", {},
     "bbf41208f93cb2ed2c3443b3cb6117338b1ea6e391f8b1f9ae17b7ce037dec74",
     "97ce84d63592a15f3109815952721d9cde9a73b35d59cea21e290af424be4849"),
    ("JS_1_8", {"alpha": F(0)},
     "d90533f3aaaee354e83accb5e1d8300d295b55957781691106b8b2e0081ade9d",
     "cb205dd6bb7c4ff9ea9b09e674f274c466efebc215e04a8bafaa53798329be34"),
    ("LW_1_2", {},
     "b35ed614f56c9e555ccbc1a429c063b3e379c2508226eec12578007df744c0b9",
     "7f30d0572f8e77ad5c860f4badafed9a857dc84a3c000757dfab7a712e3d6ff1"),
    ("LHO_1_2", {},
     "3a52c020835b5d2d3d5c7ccc0b4b4c0adfb09e3d4607c6884797db6b69ca7cc3",
     "e12ffa9277da69572dee96835940b610f3acbf24fde3258b5f89180b0afaf3bf"),
    ("LSHOp_2_2", {},
     "a1c9043f58eccd8344ed093369462fdbaeef6a37d7a133b71c44b3aa3380cc65",
     "7838821125b3e2a301ead8550550df2a1ac55566688c812aafe8f152e5200c72"),
    ("LSKOp_2_4", {},
     "67afe2d69ef7785367b4140273a37908ec0d134df0e9d740895a9bebf696eef1",
     "336f408da001b48f82656d0fc7417c0239edbad4087642146ce36bcd2e236965"),
    ("LSKOp_1_2", {"beta": F(1, 2)},
     "da4ca0391badb3d60a0f6d0866878666b5c2593f87a5f5042fb886d11e87f122",
     "96a07312357c068d84bc571a794b82fda328c1ac0f0fee6d5e33306f54758b4a"),
    ("LHa_1_2", {"alpha": F(0)},
     "fa7cd7272c8bf6c6d40a0dfe762c90fc2033a03228bf4fb65f8da88676da628f",
     "11f280dece2862527c10679145df363fce5dc1f5031f92744f6b62bfbecc85d8"),
    ("LWa_1_2", {"alpha": F(0)},
     "bc63864d8257a68eb424d5c9d036c8f75c0eb0c5601f42bf8dbf9c3e9ddda899",
     "567d90ddf3b9854332e7587b80e84c90dbfbe7438f799792ee35422e6887b470"),
    ("LWa_2_2", {"alpha": F(0)},
     "5a05336819624de56c95825d4b0950f694eedc1b389c75c1750e37572c70b41e",
     "5148932ff63821146e1f803d23a121db1b5e628797beff722fa6f0deae9da9db"),
    ("LSa_2_2", {"alpha": F(0)},
     "9984635b8b25af6b8be2af40b5785650fc76749bbae30879714b8e4f265b9f83",
     "1016827b4f1ef6c58cadb2209afd61c9661ae847afb8c53cdeb853633a056ea1"),
    ("LS_1_3", {},
     "521079b597dbbf63eb2b4e1926ab725a08fd4cbcd56881b05160f0efb1365359",
     "409b845dcfbf64fdff15a5f304189b3c81b1da1e055ba467c268e4510df798b6"),
    ("LHOa_3_1", {"alpha": F(0)},
     "3b7edbee6737bd59d8ca8612db2a0d33f42bccf1cf58a3b09d003d4bc7c40c62",
     "bc2360eef35303341e5f37e4545d6cedbee5c040906f3a48e7b7618704b90b75"),
    ("LSHOa_4_1", {"alpha": F(0)},
     "dc323907ff8b6d052fbbe76058878810feccc6c11f5ae99e84d15fb01be0d0bd",
     "7e6dd87806f7cea84cc8e2dddb72897b6dd649f2b431b13d077119f0b207eac4"),
    ("LKO_2_1", {},
     "d63aa2981c9edc298f7f5c890058b914cf4b7b9601eb901f7f43f93071e42f4b",
     "4a678dbab54b8941b43e584284b8bb8c37d05288ef58405da26cf114de8b347f"),
    ("LSKOa_3_1", {"alpha": F(0), "beta": F(1, 2)},
     "496917852a5da768546efd7f6c4d0e87348ba67b3634f1ecce49dd70d9973e08",
     "7b9cbfa33d0f39b3ee895f9236c6038ff75ead19b9ff83356530894bf71f2d92"),
    ("OJP_1_1", {},
     "e19d8230a8ad1e7de56a6433f7ff6be0ebc38c018c2d5d3cb89643c878fc4270", None),
    ("LP_1_1", {},
     "c79fc0362d109b1fcb2b21d3c6f387f0b4baff97634d1e76feeb0f7a7f09b9b3", None),
    ("OJP_2_2", {},
     "300bd98f8e71b3c4f24a10fe613a07d0d94519d449ebd1aeb79c26e85cb53284", None),
    ("LP_2_2", {},
     "d041c1b471df43541cdf7841790ed84cbae7f31016e1393690b2259249835b29", None),
    ("LSHO_2_2", {},
     "371738494613a561edaca807d4f220a141eb2c09a23f89ff27bed71caa0299f6", None),
    ("LSKO_1_2", {"beta": F(1, 3)},
     "6441897ad24c62fdc0eae1303470183c75dc026c67ccb16f09436baec75bb128", None),
]


@pytest.mark.parametrize("name, kw, verify, spot", REPORT_DIGESTS,
                         ids=[name for name, *_ in REPORT_DIGESTS])
def test_report_digests(name, kw, verify, spot):
    entry = make(name, **kw)
    reports = [catalog.verify_entry(entry, seed=s) for s in (9, 12345)]
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == verify
    if spot is not None:
        rep = ideal_spot_checks(entry)
        assert hashlib.sha256(repr(rep).encode()).hexdigest() == spot


def test_report_digests_cover_the_spot_entries():
    assert [n for n, _, _, spot in REPORT_DIGESTS if spot] == list(SPOT_REACH)
