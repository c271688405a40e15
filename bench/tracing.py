"""Per-layer tracing of one pass, done entirely from outside the package.

A ``Tracer`` wraps the public functions and methods named in ``WRAPPED``
at every name that binds them across the ``kleintwist.*`` namespaces
(the defining module, the modules that import them with
``from .x import y``, the package namespace, and the ``checks`` registry).
Each call records a span: name, start, end and parent. Spans are kept in
memory in flat arrays and written out once, when the pass ends.

``layer_metrics`` turns the spans of one pass into the per-layer metrics
listed in ``LAYER_TABLE``. A span's self time is its duration minus the
durations of its child spans; calls nest, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array

MODULES = ("perm", "incseq", "ratlinalg", "hopf", "cocycle", "present",
           "twistcalc", "checks", "cli")

# Module -> public functions and Class.method names to wrap: the ones the
# per-layer metrics name, plus the entry points other modules and the
# benchmark call. Helpers left unwrapped count towards their caller's self
# time. The checks are wrapped through the registry, one span per check id.
WRAPPED = {
    "perm": ["generate", "symmetric_group", "klein_group", "easy_klein",
             "as_subgroup", "all_subgroups", "subgroups_of_type",
             "is_characteristic_under_inner", "are_conjugate", "normalizer",
             "isomorphism_type"],
    "incseq": ["all_sequences", "complete_diagram", "complete_formula",
               "generated_completion_group"],
    "ratlinalg": ["RowSpace.reduce", "RowSpace.contains", "RowSpace.add", "rref",
                  "matmul", "matvec", "identity_matrix", "mat_sub_scalar",
                  "matpow", "solve_columns", "invert", "kernel_basis",
                  "column_space_basis", "minimal_polynomial", "rational_roots"],
    "hopf": ["FDHopf.noncommutative_witness", "FDHopf.is_commutative",
             "FDHopf.structure_equal", "group_algebra", "function_algebra",
             "scaled_integer_tensors", "verify_hopf_axioms", "HopfMap.verify",
             "HopfMap.then", "HopfMap.inverse", "restriction_surjection",
             "fourier_iso", "characters", "character_group",
             "character_to_permutation"],
    "cocycle": ["trivial_cocycle", "klein_bicharacter", "verify_cocycle",
                "pullback", "rebind", "twist", "build_s4tau", "double_twist"],
    "present": ["commutation_sign", "relation_sign_table",
                "determinant_to_permanent_signs", "parse_presentation",
                "solve_characters", "character_group_of"],
    "twistcalc": ["rho", "rho_image", "klein_diag_matrices", "klein_normalizer_so3",
                  "is_zero", "all_automorphism_actions", "phi_embedding",
                  "embedding_character_images", "matrices_to_subgroup",
                  "generation_counterexample"],
    "cli": ["main"],
}

# What a span's result says about wasted work, recorded next to the span.
OBSERVED = {
    "ratlinalg.solve_columns": lambda r: r is None,   # no solution found
    "ratlinalg.RowSpace.add": bool,                   # the dimension grew
    "hopf.characters": len,                           # characters found
}

# The spans that say which algebra a `characters` call below them is for.
ALGEBRA_OF = {f"bench.census.{a}": a
              for a in ("cs4", "qs4", "cs3", "qs3", "cd4", "s4tau", "diagtwist")}
ALGEBRA_OF.update({"checks.s4tau-characters": "s4tau",
                   "checks.diagonal-twist-characters": "diagtwist"})

CHECK_IDS = (
    "automorphisms-24", "characters-incseq", "characters-o2minus",
    "characters-snplus", "characters-so3minus", "cocycle-valid",
    "d4-classification", "det-to-perm", "diagonal-twist-characters",
    "double-twist", "embedding-images-3", "generation-counterexample",
    "hopf-axioms", "incseq-generation", "incseq-oracle", "klein-classification",
    "normalizer-24", "phi-well-defined", "rho-image", "s4tau-characters",
    "sign-table")

# Rows of (per-layer metrics, end-to-end metric they should move, workloads
# that load the layer, workloads on which the prediction is no change).
# A name ending in `.calls` or `.found` is a count per pass, in `_ratio` a
# ratio, anything else seconds per pass.
LAYER_TABLE = [
    (["ratlinalg.self_s", "ratlinalg.solve_columns.calls",
      "ratlinalg.solve_columns.self_s", "ratlinalg.solve_columns.none_ratio",
      "ratlinalg.RowSpace.add.calls", "ratlinalg.RowSpace.add.grew_ratio",
      "ratlinalg.RowSpace.reduce.calls", "ratlinalg.minimal_polynomial.calls",
      "ratlinalg.minimal_polynomial.self_s", "ratlinalg.kernel_basis.self_s"],
     "census_s, verify_s", "character-census, verify-cli",
     "twist-sweep, combinatorics"),
    (["hopf.self_s", "hopf.characters.calls", "hopf.characters.self_s",
      "hopf.characters.found"]
     + [f"hopf.characters.{a}.s" for a in
        ("cs4", "qs4", "cs3", "qs3", "cd4", "s4tau", "diagtwist")]
     + ["hopf.character_group.self_s"],
     "census_s, verify_s", "character-census, verify-cli",
     "twist-sweep, combinatorics"),
    (["hopf.verify_hopf_axioms.calls", "hopf.verify_hopf_axioms.self_s",
      "hopf.HopfMap.verify.calls", "hopf.HopfMap.verify.self_s"],
     "twist_s, verify_s; setup_s on character-census", "twist-sweep, verify-cli",
     "combinatorics"),
    (["cocycle.self_s", "cocycle.pullback.calls", "cocycle.pullback.self_s",
      "cocycle.twist.calls", "cocycle.twist.self_s", "cocycle.verify_cocycle.calls",
      "cocycle.verify_cocycle.self_s", "cocycle.build_s4tau.self_s"],
     "twist_s, verify_s; setup_s on character-census", "twist-sweep, verify-cli",
     "combinatorics"),
    (["perm.self_s", "perm.generate.calls", "perm.generate.self_s",
      "perm.all_subgroups.self_s", "perm.are_conjugate.self_s",
      "perm.isomorphism_type.calls", "perm.isomorphism_type.self_s"],
     "combinatorics_s", "combinatorics", "twist-sweep"),
    (["incseq.self_s", "incseq.generated_completion_group.self_s",
      "incseq.complete_formula.calls", "incseq.complete_formula.self_s",
      "incseq.complete_diagram.self_s"],
     "combinatorics_s", "combinatorics", "character-census, twist-sweep"),
    (["present.self_s", "present.solve_characters.calls",
      "present.solve_characters.self_s", "present.character_group_of.self_s"],
     "combinatorics_s", "combinatorics", "character-census, twist-sweep"),
    (["twistcalc.self_s", "twistcalc.all_automorphism_actions.self_s",
      "twistcalc.is_zero.calls", "twistcalc.is_zero.self_s",
      "twistcalc.phi_embedding.self_s", "twistcalc.embedding_character_images.self_s"],
     "combinatorics_s", "combinatorics", "character-census, twist-sweep"),
    (["checks.self_s"] + [f"checks.{c}.s" for c in CHECK_IDS] + ["cli.self_s"],
     "verify_s", "verify-cli", "none (they run only there)"),
    (["bench.self_s", "bench.trace_overhead_ratio"],
     "none (tracing cost and unattributed time)", "all", "-"),
]


def unit_of(metric: str) -> str:
    if metric.endswith((".calls", ".found")):
        return "count"
    if metric.endswith("_ratio"):
        return "ratio"
    return "s"


def layer_metric_names() -> list:
    return [m for row in LAYER_TABLE for m in row[0]]


class Tracer:
    """Records spans of one pass. ``install`` wraps the package's functions,
    ``uninstall`` puts the originals back."""

    def __init__(self):
        self.names: list = []          # span name table
        self._name_ids: dict = {}
        self.name_id = array("i")      # per span: index into names
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")       # -1 for a root span
        self.observed: dict = {}       # span index -> observed result
        self._stack: list = []
        self._undo: list = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        observe = OBSERVED.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                tracer.observed[idx] = observe(result)
            return result

        return traced

    def _rebind(self, original, wrapper) -> None:
        """Point every kleintwist.* module attribute bound to `original` at
        `wrapper`."""
        for modname, mod in list(sys.modules.items()):
            if modname != "kleintwist" and not modname.startswith("kleintwist."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, kt) -> None:
        """Wrap everything in WRAPPED. A name the package no longer has is
        skipped, so its metrics read 0 instead of the traced run failing."""
        for modname, names in WRAPPED.items():
            mod = getattr(kt, modname)
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name, None)
                    original = vars(owner).get(attr) if owner is not None else None
                    if original is None:
                        continue
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(f"{modname}.{qual}", original))
                else:
                    original = getattr(mod, attr, None)
                    if original is not None:
                        self._rebind(original, self.wrap(f"{modname}.{qual}", original))
        registry = kt.checks.REGISTRY
        for cid, original in list(registry.items()):
            wrapper = self.wrap(f"checks.{cid}", original)
            self._undo.append((registry, cid, original))
            registry[cid] = wrapper
            self._rebind(original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans as parallel columns; times are seconds from the
        first span's start."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            json.dump(dict(meta, names=self.names, name_id=self.name_id.tolist(),
                           start=[s - t0 for s in self.start],
                           end=[e - t0 for e in self.end],
                           parent=self.parent.tolist(),
                           observed={str(k): v for k, v in self.observed.items()}),
                      fh)


def layer_metrics(tr: Tracer) -> dict:
    """The per-layer metrics of one traced pass (all but the overhead
    ratio, which needs the untraced pass as well)."""
    n = len(tr.name_id)
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tr.parent[i] >= 0:
            child[tr.parent[i]] += dur[i]
    names = tr.names
    calls: dict = {}
    self_s: dict = {}
    total_s: dict = {}
    observed: dict = {}     # per name: the sum of the observed results
    module_self = {m: 0.0 for m in MODULES + ("bench",)}
    for i in range(n):
        name = names[tr.name_id[i]]
        own = dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + dur[i]
        module_self[name.split(".", 1)[0]] += own
        if i in tr.observed:
            observed[name] = observed.get(name, 0) + tr.observed[i]

    per_algebra = {a: 0.0 for a in set(ALGEBRA_OF.values())}
    for i in range(n):
        if names[tr.name_id[i]] != "hopf.characters":
            continue
        p = tr.parent[i]
        while p >= 0 and names[tr.name_id[p]] not in ALGEBRA_OF:
            p = tr.parent[p]
        if p >= 0:
            per_algebra[ALGEBRA_OF[names[tr.name_id[p]]]] += dur[i]

    out = {}
    for metric in layer_metric_names():
        head, _, tail = metric.rpartition(".")
        if metric == "bench.trace_overhead_ratio":
            continue
        if metric.endswith(".self_s") and head in module_self:
            out[metric] = module_self[head]
        elif metric.startswith("hopf.characters.") and head.split(".")[-1] in per_algebra:
            out[metric] = per_algebra[head.split(".")[-1]]
        elif tail == "calls":
            out[metric] = calls.get(head, 0)
        elif tail == "self_s":
            out[metric] = self_s.get(head, 0.0)
        elif tail == "s":
            out[metric] = total_s.get(head, 0.0)
        elif tail in ("none_ratio", "grew_ratio"):
            out[metric] = observed.get(head, 0) / calls[head] if head in calls else 0.0
        elif tail == "found":
            out[metric] = observed.get(head, 0)
        else:
            raise KeyError(f"no rule computes {metric}")
    return out
