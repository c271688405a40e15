"""The benchmark's tracer still wraps the package in process: a traced
characters run raises nothing, and every observed result has the type
the per-layer metrics expect."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402

import kleintwist as kt  # noqa: E402

OBSERVED_TYPE = {"hopf.characters": int}


def scaled_basis(H, c: int):
    """H on the basis c e_i: its product's entries are c, so a large c
    sends characters to the exact route, whose RowSpace steps the tracer
    sees."""
    (U, dU), (M, dM), (C, dC), (E, dE), S, T = H._pairs
    return kt.hopf.FDHopf._from_tensors(H.basis_labels, (U, dU * c), (M * c, dM),
                                        (C, dC * c), (E * c, dE), S, T)


def test_traced_characters_run():
    for name in tracing.MODULES:
        importlib.import_module(f"kleintwist.{name}")
    tr = tracing.Tracer()
    tr.install(kt)
    try:
        S3 = kt.perm.symmetric_group(3)
        for H in (kt.hopf.function_algebra(S3), kt.hopf.group_algebra(S3),
                  scaled_basis(kt.hopf.function_algebra(S3), 10 ** 9)):
            kt.hopf.character_group(H, kt.hopf.characters(H))
    finally:
        tr.uninstall()
    names = {tr.names[i] for i in tr.name_id}
    assert {"hopf.characters", "hopf.character_group", "ratlinalg.RowSpace.reduce"} <= names
    assert tr.observed
    for idx, value in tr.observed.items():
        assert type(value) is OBSERVED_TYPE[tr.names[tr.name_id[idx]]]
    metrics = tracing.layer_metrics(tr)
    assert metrics["hopf.characters.calls"] == 3
    assert metrics["hopf.characters.found"] == 14
    assert metrics["ratlinalg.RowSpace.reduce.calls"] > 0
