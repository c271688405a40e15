"""The benchmark's tracer still wraps the package in process: a traced
characters run raises nothing, and every observed result has the type
the per-layer metrics expect."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402

import kleintwist as kt  # noqa: E402
from kleintwist.ratlinalg import RowSpace  # noqa: E402

OBSERVED_TYPE = {"ratlinalg.RowSpace.add": bool, "ratlinalg.solve_columns": bool,
                 "hopf.characters": int}


def test_traced_characters_run():
    for name in tracing.MODULES:
        importlib.import_module(f"kleintwist.{name}")
    tr = tracing.Tracer()
    tr.install(kt)
    try:
        S3 = kt.perm.symmetric_group(3)
        for H in (kt.hopf.function_algebra(S3), kt.hopf.group_algebra(S3)):
            kt.hopf.character_group(H, kt.hopf.characters(H))
        # Q[x,y]/(x,y)^2 x Q has no generating element, so characters tests
        # its blocks for locality, which reaches RowSpace.add
        kt.hopf.characters(kt.hopf.FDHopf(
            4, ["e1", "x", "y", "e2"], {0: 1, 3: 1},
            {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1},
             (2, 0): {2: 1}, (3, 3): {3: 1}},
            {i: [] for i in range(4)}, [0] * 4, {i: {} for i in range(4)},
            {i: {i: 1} for i in range(4)}))
    finally:
        tr.uninstall()
    names = {tr.names[i] for i in tr.name_id}
    assert {"hopf.characters", "hopf.character_group", "ratlinalg.RowSpace.add"} <= names
    assert tr.observed
    for idx, value in tr.observed.items():
        assert type(value) is OBSERVED_TYPE[tr.names[tr.name_id[idx]]]
    metrics = tracing.layer_metrics(tr)
    assert metrics["hopf.characters.calls"] == 3
    assert metrics["hopf.characters.found"] == 10
    assert 0 < metrics["ratlinalg.RowSpace.add.grew_ratio"] < 1


def test_row_space_add_returns_a_bool():
    space = RowSpace(2)
    assert space.add([2, 4]) is True and space.add([1, 2]) is False
