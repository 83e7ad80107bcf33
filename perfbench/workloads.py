"""The benchmark's workloads, their seeded inputs and the correctness gate.

Each workload is a list of operations built once during set-up.  An operation
returns a verdict (the library's own pass/fail answer) and a list of
mismatches against values pinned below.  A verdict of False counts as a failed
operation; a mismatch or an exception also makes the run incorrect.

JW_0_8 stays in both finite workloads although it fails its own rigidity
check today: its failure is counted, never exempted, and its dimensions are
not pinned because fixing the entry may change them.
"""
from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"

FINITE = ("JS_0_2", "LW_0_2", "JW_0_4", "JS_0_8", "JS_0_16", "JW_0_8")
# JS_0_16 is left out: its expansion does not finish within minutes.
GRADED = ("JS_0_2", "LW_0_2", "JW_0_4", "JS_0_8", "JW_0_8")
# Family instances verified next to the fixed oracle entries.
FAMILY_INSTANCES = (("OJP_1_1", {}), ("LP_1_1", {}), ("OJP_2_2", {}),
                    ("LP_2_2", {}), ("LSHO_2_2", {}),
                    ("LSKO_1_2", {"beta": Fraction(1, 3)}))
TKK_DEPTH = 4

# Pinned reference values.
DIM_STR_R = {"JS_0_2": (3, 4), "LW_0_2": (4, 4), "JW_0_4": (10, 8),
             "JS_0_8": (20, 16), "JS_0_16": (48, 48)}
TKK_DIMS = {
    "JS_0_2": ({-1: 2, 0: 3, 1: 4, 2: 5, 3: 6, 4: 7}, False),
    "LW_0_2": ({-1: 2, 0: 4, 1: 4, 2: 4, 3: 4, 4: 4}, False),
    "JW_0_4": ({-1: 4, 0: 10, 1: 8, 2: 2, 3: 0}, True),
    "JS_0_8": ({-1: 8, 0: 20, 1: 16, 2: 5, 3: 0}, True),
}
# (reached, targets) for each default seed element of ideal_spot_checks.
SPOT_REACH = {
    "JS_1_1": [(3, 3), (0, 3)], "JSHO_2_2": [(12, 12), (0, 12)],
    "JSKO_1_2": [(6, 6), (0, 6)], "JS_1_8": [(24, 24), (0, 24)],
    "LW_1_2": [(6, 6), (0, 6)], "LHO_1_2": [(5, 5), (0, 5)],
    "LSHOp_2_2": [(11, 11), (0, 11)], "LSKOp_2_4": [(27, 27), (0, 27)],
    "LSKOp_1_2": [(6, 6), (0, 6)], "LHa_1_2": [(5, 5), (0, 5)],
    "LWa_1_2": [(6, 6), (0, 6)], "LWa_2_2": [(12, 12), (0, 12)],
    "LSa_2_2": [(12, 12), (0, 12)], "LS_1_3": [(9, 9), (0, 9)],
    "LHOa_3_1": [(9, 9), (0, 9)], "LSHOa_4_1": [(14, 14), (0, 14)],
    "LKO_2_1": [(6, 6), (0, 6)], "LSKOa_3_1": [(10, 10), (0, 10)],
}

WORKLOADS = ("finite_rigidity", "graded_expansion", "oracle_window")


@dataclass
class Op:
    """One timed call into the library and the judge of its result."""
    name: str
    call: Callable[[], object]
    judge: Callable[[object], tuple[bool, list[str]]]


def import_library(fresh: bool = False):
    """Import superrigid from the checkout's src/ and return its modules.

    ``fresh`` drops any loaded copy first, so the import itself is redone.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules if n == "superrigid" or n.startswith("superrigid.")]:
            del sys.modules[name]
    catalog = importlib.import_module("superrigid.catalog")
    if not Path(catalog.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"superrigid resolved outside {SRC}: {catalog.__file__}")
    return {name: importlib.import_module(f"superrigid.{name}")
            for name in ("jets", "brackets", "fields", "linalg", "walg", "catalog")}


def relabel(lib, entry, rng: random.Random):
    """Copy of a finite entry with its basis permuted by ``rng``."""
    alg = entry.algebra
    perm = list(range(alg.dim))
    rng.shuffle(perm)
    parities = [0] * alg.dim
    for i, p in enumerate(alg.parities):
        parities[perm[i]] = p
    labels = None
    if alg.labels:
        labels = [""] * alg.dim
        for i, s in enumerate(alg.labels):
            labels[perm[i]] = s
    table = {(perm[i], perm[j]): {perm[k]: c for k, c in out.items()}
             for (i, j), out in alg.table.items()}
    moved = lib["walg"].FinSuperAlg(
        parities, alg.product_parity, table, labels,
        anticommutative_presentation=alg.anticommutative_presentation)
    return lib["catalog"].FiniteEntry(entry.name, moved, entry.params, entry.summary)


def _mismatch(what, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got}, pinned {want}"]


def judge_verify(name):
    def judge(rep):
        bad = []
        if name in DIM_STR_R:
            got = (rep.stats["dim_str"], rep.stats["dim_r"])
            bad += _mismatch(f"{name} dim_str/dim_r", got, DIM_STR_R[name])
        if name != "JW_0_8":
            bad += _mismatch(f"{name} verdict", rep.passed, True)
        return rep.passed, bad
    return judge


def judge_graded(name):
    def judge(result):
        G, rep = result
        bad = []
        if name in TKK_DIMS:
            bad += _mismatch(f"{name} tkk dims/terminated", (G.dims, G.terminated),
                             TKK_DIMS[name])
            bad += _mismatch(f"{name} admissible", rep.admissible, True)
        return rep.admissible, bad
    return judge


def judge_spot(name):
    def judge(rep):
        got = [(s.reached, s.targets) for s in rep.seeds]
        bad = _mismatch(f"{name} spot reach", got, SPOT_REACH[name])
        bad += _mismatch(f"{name} spot verdict", rep.passed, True)
        return rep.passed, bad
    return judge


def oracle_specs(lib) -> list[tuple[str, dict]]:
    """Fixed oracle entries probed as registry_listing probes them, then the
    family instances."""
    specs = []
    for row in lib["catalog"].registry_listing():
        if row["kind"] != "oracle" or "<" in row["name"]:
            continue
        kw = {}
        if "alpha" in row["params"]:
            kw["alpha"] = Fraction(0)
        if "beta" in row["params"]:
            kw["beta"] = Fraction(1, 2)
        specs.append((row["name"], kw))
    return specs + list(FAMILY_INSTANCES)


def build_ops(lib, workload: str, seed: int) -> list[Op]:
    """Make every entry the workload uses and the operations over them."""
    cat, walg = lib["catalog"], lib["walg"]
    rng = random.Random(seed)
    if workload == "finite_rigidity":
        entries = [relabel(lib, cat.make(n), rng) for n in FINITE]
        return [Op(f"verify_entry {e.name}", lambda e=e: cat.verify_entry(e),
                   judge_verify(e.name)) for e in entries]
    if workload == "graded_expansion":
        entries = [relabel(lib, cat.make(n), rng) for n in GRADED]

        def expand(alg):
            G = walg.tkk(alg, depth_cap=TKK_DEPTH)
            return G, walg.check_admissible_findim(G)

        return [Op(f"tkk+admissible {e.name}", lambda a=e.algebra: expand(a),
                   judge_graded(e.name)) for e in entries]
    if workload == "oracle_window":
        ops = []
        for name, kw in oracle_specs(lib):
            e = cat.make(name, **kw)
            s = rng.randrange(2 ** 31)
            ops.append(Op(f"verify_entry {name}",
                          lambda e=e, s=s: cat.verify_entry(e, seed=s),
                          lambda rep: (rep.passed, [] if rep.passed else
                                       [f"{rep.name} verdict: got False, pinned True"])))
            if name in SPOT_REACH:
                ops.append(Op(f"ideal_spot_checks {name}",
                              lambda e=e: cat.ideal_spot_checks(e),
                              judge_spot(name)))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
