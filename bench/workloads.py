"""The benchmark's four workloads, each split into set-up, pass and gate.

A workload is four functions:

- ``setup(kt, seed, slot, workdir)`` builds the pass's inputs in the
  pass's own interpreter. Everything the seed decides is drawn here, and
  this is the part that ``setup_s`` times.
- ``run(kt, inputs, span)`` is the timed pass. Each operation catches its
  own exception and records it as a ``Raised`` output, so one failure
  does not stop the pass.
- ``check(kt, inputs, outputs)`` compares every output with its exact
  expected value, outside the timed part. It returns the number of
  operations attempted and a list of failure messages. ``setup_check``
  does the same for what set-up built.

``kt`` is the imported ``kleintwist`` package. Every call goes through a
module attribute at call time (``kt.hopf.characters``, not a name bound
at import), so that a traced pass reaches the wrapped functions.
``span(name)`` is a context manager that marks a stretch of the pass in
the trace; it does nothing in an untraced pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from typing import NamedTuple


class Raised(NamedTuple):
    """The output of an operation that raised instead of returning."""

    error: str


def attempt(fn, *args):
    """fn(*args), or a Raised record of the exception it threw."""
    try:
        return fn(*args)
    except Exception as exc:  # a failed operation is counted, the pass goes on
        return Raised(f"{type(exc).__name__}: {exc}")


def rng_for(seed: int, stream) -> random.Random:
    """A random stream drawn from the seed: the same seed and stream name
    (or pass slot) give the same inputs."""
    return random.Random(f"kleintwist-bench/{seed}/{stream}")


def compare(expected: dict, outputs: dict) -> tuple[int, list]:
    """Exact comparison of named outputs against named expected values."""
    failures = []
    for name, want in expected.items():
        got = outputs.get(name, Raised("missing"))
        if isinstance(got, Raised):
            failures.append(f"{name}: raised {got.error}")
        elif got != want:
            failures.append(f"{name}: got {got!r}, expected {want!r}")
    return len(expected), failures


# -- verify-cli ---------------------------------------------------------------
# The command users run, with every check and the default --max-n. It has
# no seedable input; the interpreter is fresh, so the @cache fixtures in
# `checks` and the lru_caches in `twistcalc` start cold on every pass.


def verify_setup(kt, seed, slot, workdir):
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        code = kt.cli.main(["list-checks"])
    return {"list_code": code, "check_ids": listing.getvalue().split(),
            "json_out": os.path.join(workdir, f"verify-{slot}.json")}


def verify_run(kt, inputs, span):
    with contextlib.redirect_stdout(io.StringIO()):
        return {"exit_code": attempt(kt.cli.main,
                                     ["verify", "--json-out", inputs["json_out"]])}


def verify_check(kt, inputs, outputs):
    try:
        with open(inputs["json_out"]) as fh:
            report = {r["check_id"]: r for r in json.load(fh)}
    except (OSError, ValueError):
        report = {}     # every check id then counts as absent
    got = {"exit_code": outputs["exit_code"], "list_code": inputs["list_code"],
           "check_count": len(inputs["check_ids"])}
    expected = {"exit_code": 0, "list_code": 0, "check_count": len(report) or -1}
    for cid in inputs["check_ids"]:
        got[cid] = report.get(cid, {}).get("status", Raised("absent from the report"))
        expected[cid] = "pass"
    s4tau = report.get("s4tau-characters", {})
    got["s4tau-characters.value"] = (s4tau.get("metrics", {}).get("characters"),
                                     s4tau.get("labels", {}).get("group_type"))
    expected["s4tau-characters.value"] = (8, "D4")
    return compare(expected, got)


# -- twist-sweep --------------------------------------------------------------
# One round trip per pass over a (Klein subgroup, dual labeling) pair. The
# seed draws the order of the 24 pairs: an order of the four subgroups and
# of each one's six labelings. Pass `slot` takes subgroup slot % 4 of that
# order, so any four passes in a row cover every subgroup once. The twist by
# the normal subgroup is commutative and costs a different time from the
# other three, and a run has only a few passes; were the order drawn freely,
# a run's median would depend on how many normal-subgroup pairs it drew.


def klein_pairs(kt):
    """The four Klein subgroups of S4, each with its six ordered choices
    of two distinct involutions, as [(V, [(g1, g2), ...]), ...]; the
    normal subgroup first."""
    P = kt.perm.Permutation
    normal = kt.perm.klein_group()
    plain = [kt.perm.generate(4, [P.from_cycles(4, [a]), P.from_cycles(4, [b])])
             for a, b in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))]
    groups = []
    for V in [normal] + plain:
        involutions = [g for g in V.sorted_elements() if not g.is_identity()]
        groups.append((V, [(g1, g2) for g1 in involutions for g2 in involutions
                           if g1 != g2]))
    return groups


def twist_setup(kt, seed, slot, workdir):
    groups = klein_pairs(kt)
    rng = rng_for(seed, "pairs")
    rng.shuffle(groups)
    for _, labelings in groups:
        rng.shuffle(labelings)
    V, labelings = groups[slot % len(groups)]
    gens = labelings[slot // len(groups) % len(labelings)]
    return {"V": V, "gens": gens, "normal": V == kt.perm.klein_group()}


def _round_trip(kt, V, gens):
    t = kt.cocycle.build_s4tau(V, gens, verify=True)
    back = kt.cocycle.double_twist(t)
    return t, back.structure_equal(t.base)


def twist_run(kt, inputs, span):
    return {"round_trip": attempt(_round_trip, kt, inputs["V"], inputs["gens"])}


def _commutative(H) -> bool:
    """Read off the structure tensors here rather than asked of FDHopf, so
    the gate does not rest on the code it measures."""
    return all(H.mult.get((i, j), {}) == H.mult.get((j, i), {})
               for i in range(H.dim) for j in range(i + 1, H.dim))


def twist_check(kt, inputs, outputs):
    rt = outputs["round_trip"]
    if isinstance(rt, Raised):
        got = {k: rt for k in ("noncommutative", "suites", "restores")}
    else:
        t, restored = rt
        suites = attempt(kt.hopf.verify_hopf_axioms, t.algebra)
        got = {"noncommutative": not _commutative(t.algebra),
               "suites": suites if isinstance(suites, Raised) else sorted(
                   k for k, ok in suites.items() if not ok),
               "restores": restored}
    expected = {"noncommutative": not inputs["normal"], "suites": [], "restores": True}
    return compare(expected, got)


# -- character-census ---------------------------------------------------------
# Characters, character group and its type on a mix of algebras, each
# under a seed-drawn relabelling of its basis. The two twists are built in
# set-up, so `cocycle` does no work in the timed part.

CENSUS_EXPECTED = {
    "cs4": (24, "S4"), "qs4": (2, "Z2"), "cs3": (6, "S3"), "qs3": (2, "Z2"),
    "cd4": (8, "D4"), "s4tau": (8, "D4"), "diagtwist": (24, "S4"),
}


def relabel(kt, H, perm):
    """H with basis vector i renamed perm[i], built through the public
    FDHopf constructor."""
    n = H.dim
    labels = [None] * n
    counit = [0] * n
    for i in range(n):
        labels[perm[i]] = H.basis_labels[i]
        counit[perm[i]] = H.counit[i]

    def vec(v):
        return {perm[k]: c for k, c in v.items()}

    return kt.hopf.FDHopf(
        n, labels, vec(H.unit),
        {(perm[i], perm[j]): vec(v) for (i, j), v in H.mult.items()},
        {perm[i]: [(perm[a], perm[b], c) for a, b, c in H.comult[i]] for i in range(n)},
        counit,
        {perm[i]: vec(H.antipode[i]) for i in range(n)},
        {perm[i]: vec(H.star[i]) for i in range(n)})


def census_algebras(kt):
    S4, S3 = kt.perm.symmetric_group(4), kt.perm.symmetric_group(3)
    P = kt.perm.Permutation
    D4 = kt.perm.generate(4, [P.from_cycles(4, [(1, 2, 3, 4)]),
                              P.from_cycles(4, [(1, 3)])])
    return {
        "cs4": kt.hopf.function_algebra(S4),
        "qs4": kt.hopf.group_algebra(S4),
        "cs3": kt.hopf.function_algebra(S3),
        "qs3": kt.hopf.group_algebra(S3),
        "cd4": kt.hopf.function_algebra(D4),
        "s4tau": kt.cocycle.build_s4tau().algebra,
        "diagtwist": kt.cocycle.build_s4tau(V=kt.perm.klein_group()).algebra,
    }


def census_setup(kt, seed, slot, workdir):
    rng = rng_for(seed, slot)
    algebras = {}
    suites = {}
    for name, H in census_algebras(kt).items():
        perm = list(range(H.dim))
        rng.shuffle(perm)
        algebras[name] = relabel(kt, H, perm)
        rep = attempt(kt.hopf.verify_hopf_axioms, algebras[name])
        suites[name] = rep if isinstance(rep, Raised) else sorted(
            k for k, ok in rep.items() if not ok)
    return {"algebras": algebras, "suites": suites, "expected": CENSUS_EXPECTED}


def _census_one(kt, H):
    chars = kt.hopf.characters(H)
    group = kt.hopf.character_group(H, chars)
    return len(chars), kt.perm.isomorphism_type(group).name


def census_run(kt, inputs, span):
    out = {}
    for name, H in inputs["algebras"].items():
        with span(f"bench.census.{name}"):
            out[name] = attempt(_census_one, kt, H)
    return out


def census_setup_check(kt, inputs):
    return compare({name: [] for name in inputs["suites"]}, inputs["suites"])


def census_check(kt, inputs, outputs):
    return compare(inputs["expected"], outputs)


# -- combinatorics ------------------------------------------------------------
# perm, incseq, present and twistcalc, which the algebra layers never
# reach. Each operation returns a small exact digest of its result; the
# seed draws the order of the operations.


def _routes(kt, n):
    seqs = [s for k in range(n + 1) for s in kt.incseq.all_sequences(k, n)]
    agree = all(kt.incseq.complete_formula(s) == kt.incseq.complete_diagram(s)
                for s in seqs)
    return len(seqs), agree


def _klein_census(kt):
    G = kt.perm.symmetric_group(4)
    kleins = kt.perm.subgroups_of_type(G, "Klein")
    inner = [H for H in kleins if kt.perm.is_characteristic_under_inner(G, H)]
    rest = [H for H in kleins if H not in inner]
    conj = all(kt.perm.are_conjugate(G, a, b) is not None for a in rest for b in rest)
    return len(kleins), len(inner), inner == [kt.perm.klein_group()], conj


def _d4_census(kt):
    G = kt.perm.symmetric_group(4)
    d4s = kt.perm.subgroups_of_type(G, "D4")
    normal = kt.perm.klein_group()
    contain = all(normal.is_subgroup_of(H) for H in d4s)
    conj = all(kt.perm.are_conjugate(G, a, b) is not None for a in d4s for b in d4s)
    return len(d4s), contain, conj


def _solve(kt, name):
    return len(kt.present.solve_characters(kt.present.parse_presentation(name)))


def _group_of(kt, name):
    try:
        g = kt.present.character_group_of(kt.present.parse_presentation(name))
    except ValueError:
        return "no group"
    return g.order, kt.perm.isomorphism_type(g).name if g.order <= 24 else None


def _automorphisms(kt):
    actions = kt.twistcalc.all_automorphism_actions()
    return len(actions), len(set(actions.values()))


def _phi(kt, x):
    E = kt.twistcalc.phi_embedding(x)
    return [len(row) for row in E]


def _images(kt):
    return sorted(len(s) for s in kt.twistcalc.embedding_character_images())


def _counterexample(kt):
    rep = kt.twistcalc.generation_counterexample()
    return (rep.d_group.order, rep.self_join.order, rep.full_join.order,
            rep.matches_reference)


PRESENTATIONS = {"o2minus": (8, (8, "D4")), "so3minus": (24, (24, "S4")),
                 "snplus:3": (6, (6, "S3")), "snplus:4": (24, (24, "S4")),
                 "snplus:5": (120, (120, None))}
PRESENTATIONS.update({f"incseq:{k}:{n}": (math.comb(n, k), "no group")
                      for n in range(1, 6) for k in range(n + 1)})


def combinatorics_ops(kt) -> dict:
    """Operation name -> (function, arguments, exact expected digest)."""
    ops = {}
    for n in range(9):
        for k in range(n + 1):
            ops[f"generated_completion_group:{k}:{n}"] = (
                lambda k, n: kt.incseq.generated_completion_group(k, n, bound=8).order,
                (k, n), math.factorial(n) if 0 < k < n else 1)
    for n in range(1, 9):
        ops[f"completion_routes:{n}"] = (_routes, (kt, n), (2 ** n, True))
    ops["klein_census"] = (_klein_census, (kt,), (4, 1, True, True))
    ops["d4_census"] = (_d4_census, (kt,), (3, True, True))
    for name, (count, group) in PRESENTATIONS.items():
        ops[f"solve_characters:{name}"] = (_solve, (kt, name), count)
        ops[f"character_group_of:{name}"] = (_group_of, (kt, name), group)
    ops["all_automorphism_actions"] = (_automorphisms, (kt,), (24, 24))
    for x in kt.perm.symmetric_group(4).sorted_elements():
        ops[f"phi_embedding:{x.cycle_string()}"] = (_phi, (kt, x), [3, 3, 3])
    ops["embedding_character_images"] = (_images, (kt,), [8, 8, 8])
    ops["generation_counterexample"] = (_counterexample, (kt,), (8, 8, 24, True))
    return ops


def combinatorics_setup(kt, seed, slot, workdir):
    ops = combinatorics_ops(kt)
    order = sorted(ops)
    rng_for(seed, slot).shuffle(order)
    return {"ops": ops, "order": order}


def combinatorics_run(kt, inputs, span):
    ops = inputs["ops"]
    return {name: attempt(ops[name][0], *ops[name][1]) for name in inputs["order"]}


def combinatorics_check(kt, inputs, outputs):
    return compare({name: op[2] for name, op in inputs["ops"].items()}, outputs)


def no_setup_check(kt, inputs):
    return 0, []


class Workload(NamedTuple):
    setup: object
    setup_check: object   # gates what set-up built; runs in set-up-only passes too
    run: object
    check: object
    pass_name: str        # what this workload's pass time is called in reports


WORKLOADS = {
    "verify-cli": Workload(verify_setup, no_setup_check, verify_run, verify_check,
                           "verify_s"),
    "twist-sweep": Workload(twist_setup, no_setup_check, twist_run, twist_check,
                            "twist_s"),
    "character-census": Workload(census_setup, census_setup_check, census_run,
                                 census_check, "census_s"),
    "combinatorics": Workload(combinatorics_setup, no_setup_check, combinatorics_run,
                              combinatorics_check, "combinatorics_s"),
}
