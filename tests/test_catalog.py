"""Closure outputs on real catalog entries: Str, R and the graded expansion."""
import pytest

from superrigid.catalog import make
from superrigid.walg import check_admissible_findim, is_rigid, tkk


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
