"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The traced runs take a few minutes: each workload is traced twice, in
processes with different hash seeds, two processes at a time.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, import_library, judge_graded, judge_verify  # noqa: E402

# Which workloads each per-layer count must be nonzero on.
DRIVES = {
    "fractions.mul_calls": WORKLOADS,
    "fractions.add_calls": WORKLOADS,
    "jets.mul_calls": ("oracle_window",),
    "jets.mul_terms_out": ("oracle_window",),
    "jets.deriv_calls": ("oracle_window",),
    "brackets.calls": ("oracle_window",),
    "fields.calls": ("oracle_window",),
    "catalog.oracle_product_calls": ("oracle_window",),
    "walg.act_calls": ("finite_rigidity", "graded_expansion"),
    "walg.map_build_calls": ("finite_rigidity", "graded_expansion"),
    "walg.box_calls": ("finite_rigidity", "graded_expansion"),
    "walg.map_eval_calls": ("finite_rigidity", "graded_expansion"),
    "linalg.span_reduce_calls": WORKLOADS,
    "linalg.closure_calls": WORKLOADS,
    "linalg.closure_candidates": WORKLOADS,
    "linalg.closure_accepted": WORKLOADS,
}
FAILED_PER_PASS = {"finite_rigidity": 1, "graded_expansion": 1, "oracle_window": 0}


def _launch(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", "1"]
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload with one seed: {workload: [a, b]}."""
    out = {}
    for w in WORKLOADS:
        procs = [_launch(w, h) for h in (1, 2)]
        out[w] = []
        for p in procs:
            stdout, _ = p.communicate(timeout=600)
            assert p.returncode == 0
            out[w].append(json.loads(stdout.strip().splitlines()[-1]))
    return out


def _counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count" or k == "linalg.closure_accept_ratio"}


def test_gate_and_failures(traced):
    for w, runs in traced.items():
        for r in runs:
            assert r["correct"], w
            assert r["failed"] == 2 * FAILED_PER_PASS[w], w


def test_traced_counts_repeat(traced):
    for w, (a, b) in traced.items():
        assert _counts(a) == _counts(b), w


def test_driven_counts_nonzero(traced):
    for metric, workloads in DRIVES.items():
        for w in workloads:
            assert traced[w][0]["metrics"][metric]["value"] > 0, (metric, w)


def test_no_jets_work_on_graded(traced):
    for k, v in traced["graded_expansion"][0]["metrics"].items():
        if k.startswith("jets."):
            assert v["value"] == 0, k


def test_every_per_layer_metric_reported(traced):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["per_layer"]}
    for w, (a, _) in traced.items():
        assert set(a["metrics"]) == names, w


def test_gate_catches_changed_constant():
    """Zero one structure constant of JW_0_4: a cheap change that alters
    both its Str/R dimensions and its graded expansion."""
    lib = import_library()
    cat, walg = lib["catalog"], lib["walg"]
    alg = cat.make("JW_0_4").algebra
    assert judge_verify("JW_0_4")(cat.verify_entry(cat.make("JW_0_4")))[1] == []
    table = {key: dict(out) for key, out in alg.table.items()}
    table[(0, 2)][1] = 0
    entry = cat.FiniteEntry("JW_0_4", walg.FinSuperAlg(
        alg.parities, alg.product_parity, table, alg.labels))
    assert judge_verify("JW_0_4")(cat.verify_entry(entry))[1]
    G = walg.tkk(entry.algebra, depth_cap=4)
    assert judge_graded("JW_0_4")((G, walg.check_admissible_findim(G)))[1]


def test_speed_probe():
    """The probe samples while work runs, leaves its own time out of now(),
    and scales a time by the samples near it."""
    from run import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    try:
        t0, c0 = time.perf_counter(), probe.now()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
        wall, probed = time.perf_counter() - t0, probe.now() - c0
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert wall - probed == pytest.approx(sum(dt for _, dt in probe.samples),
                                          rel=0.2)
    ref = SpeedProbe.PROBE_S
    probe.samples = [(0.0, 2 * ref), (1.0, ref), (5.0, ref / 4)]
    assert probe.scaled(0.9, 0.2) == pytest.approx(0.2)
    assert probe.scaled(0.0, 1.0) == pytest.approx(1.0 / 1.5)
    assert probe.scaled(3.5, 0.1) == pytest.approx(0.4)


def test_fails_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_window",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
