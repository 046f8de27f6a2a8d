"""Tests of the benchmark itself: a small-n smoke run of every workload,
traced and untraced, and checks that a corrupted program output is caught.

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import partial

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks as C  # noqa: E402
import run as R  # noqa: E402
import workloads as W  # noqa: E402

SMALL = {
    "xg-cold": partial(W.xg_round, n=4),
    "betti-cold": partial(W.betti_round, n=4),
    "xi-cold": partial(W.xi_round, n=4),
}


def cli(*argv):
    _, rc, out, err = R.spawn(["-m", "hesschrom.cli", *argv, "--json"])
    assert rc == 0, err
    return json.loads(out)


def assert_numbers(metrics, names):
    assert set(metrics) == set(names)
    for value, unit in metrics.values():
        assert isinstance(value, (int, float)) and value == value and unit


def metric_names():
    with open(os.path.join(R.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMALL) + ["verify-warm"])
def test_smoke(workload, traced):
    rng = random.Random(7)
    if workload == "verify-warm":
        result = R.run_warm(rng, 0, traced, min_ops=1, max_n=3)
    else:
        result = R.run_cold(SMALL[workload], rng, 0, traced, min_ops=1)
    assert result["errors"] == []
    assert result["failed"] == 0 and result["wrong"] == 0
    assert result["attempted"] == len(result["latencies"]) > 0
    e2e, layers = metric_names()
    if traced:
        metrics, missing = R.per_layer(result, 1.0)
        assert missing == []
        assert_numbers(metrics, layers)
    else:
        assert_numbers(R.end_to_end(result, 0.1), e2e)


def corrupt_first(doc):
    """Adds one to the first coefficient of a program output."""
    bad = copy.deepcopy(doc)
    pair = bad["terms"][0]["poly"][0]
    pair[1] = str(Fraction(pair[1]) + 1)
    return bad


M4 = (2, 3, 4)  # a Hessenberg function with n = 4 and weight 3


@pytest.mark.parametrize("basis", ["M", "m", "e", "h", "p", "s"])
@pytest.mark.parametrize("command", ["xg", "omega-xg"])
def test_xg_check_catches_corruption(command, basis):
    doc = cli(command, "--m", "2,3,4", "--basis", basis)
    assert C.check_xg(M4, command == "omega-xg", doc) is None
    assert C.check_xg(M4, command == "omega-xg", corrupt_first(doc)) is not None


@pytest.mark.parametrize("basis", ["e", "h", "p", "s"])
def test_omega_pair_catches_corruption(basis):
    wx = cli("omega-xg", "--m", "2,3,4", "--basis", basis)
    x = cli("xg", "--m", "2,3,4", "--basis", C.OMEGA_PAIRS[basis])
    assert C.check_omega_pair(x, wx) is None
    assert C.check_omega_pair(x, corrupt_first(wx)) is not None


def test_character_check_catches_corruption():
    doc = cli("character", "--m", "2,3,4", "--d", "1")
    assert C.check_character(M4, 1, doc) is None
    for i in (0, len(doc["values"]) - 1):  # the n-cycle and the identity
        bad = copy.deepcopy(doc)
        bad["values"][i]["value"] += 1
        assert C.check_character(M4, 1, bad) is not None


@pytest.mark.parametrize("lam", [(4,), (2, 2), (2, 1, 1), (1, 1, 1, 1)])
def test_betti_check_catches_corruption(lam):
    doc = cli("betti", "--m", "2,3,4", "--lambda", ",".join(map(str, lam)))
    assert C.check_betti(M4, lam, doc) is None
    bad = copy.deepcopy(doc)
    bad["betti"][0][1] += 1
    assert C.check_betti(M4, lam, bad) is not None


@pytest.mark.parametrize("which", ["D", "complement"])
def test_xi_check_catches_corruption(which):
    edges = C.digraph_edges(M4)
    m = M4
    if which == "complement":
        edges, m = C.complement_edges(4, edges), None
    argv = ["xi", "--vertices", "1,2,3,4"]
    if edges:
        argv += ["--edges", ",".join(f"{u}>{v}" for u, v in edges)]
    doc = cli(*argv)
    assert C.check_xi(4, edges, doc, m) is None
    assert C.check_xi(4, edges, corrupt_first(doc), m) is not None


def test_warm_check_catches_corruption():
    _, rc, out, err = R.spawn(
        [os.path.join(R.HERE, "warm_worker.py")],
        json.dumps({"m": [list(M4)], "trace": False}),
    )
    assert rc == 0, err
    (op,) = json.loads(out)["ops"]
    assert W.warm_op_error(op) is None
    bad = copy.deepcopy(op)
    frob = bad["chars"][1][2]
    key = next(iter(frob))
    frob[key] = str(Fraction(frob[key]) + 1)
    assert W.warm_op_error(bad) is not None
    bad = copy.deepcopy(op)
    bad["chars"][1][1]["1,1,1,1"] += 1
    assert W.warm_op_error(bad) is not None
    assert W.warm_sweep_error([op], 4) is not None


def test_exits_nonzero_without_the_program():
    """In a directory holding only the benchmark, run.py fails fast and
    prints no result."""
    bare = os.path.join(R.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(R.HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(R.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "xg-cold", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
