"""Registry of verification checks behind the command line interface.

Each check computes something from scratch, compares it against the
stated expectation, and reports numbers (metrics), short strings
(labels) and a sentence of detail.  A deviation is a "fail", an
exception an "error"; both leave the remaining checks running.  Heavy
shared objects (the twisted algebra, character solution sets) are
memoized so that one CLI invocation builds them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .cocycle import build_s4tau, double_twist, klein_bicharacter, verify_cocycle
from .errors import KleintwistError, UnknownCheck
from .hopf import (FDHopf, HopfMap, character_group, characters, function_algebra,
                   group_algebra, verify_hopf_axioms)
from .incseq import all_sequences, complete_diagram, complete_formula, \
    generated_completion_group
from .perm import (are_conjugate, is_characteristic_under_inner,
                   isomorphism_type, klein_group, subgroups_of_type,
                   symmetric_group)
from .present import (IncSeq, O2Minus, SnPlus, SO3Minus, character_group_of,
                      determinant_to_permanent_signs, relation_sign_table,
                      solve_characters)
from .ratlinalg import _cleared
from .twistcalc import (all_automorphism_actions, embedding_character_images,
                        generation_counterexample, klein_diag_matrices,
                        klein_normalizer_so3, matrices_to_subgroup,
                        phi_embedding, rho)

MAX_N_DEFAULT = 6
MAX_N_CAP = 8


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str                    # "pass" | "fail" | "error"
    metrics: dict = field(default_factory=dict)
    labels: dict = field(default_factory=dict)
    details: str = ""
    duration_ms: float = 0.0

    def to_dict(self, zero_durations: bool = False) -> dict:
        return {
            "check_id": self.check_id,
            "status": self.status,
            "metrics": dict(sorted(self.metrics.items())),
            "labels": dict(sorted(self.labels.items())),
            "details": self.details,
            "duration_ms": 0.0 if zero_durations else self.duration_ms,
        }


@dataclass(frozen=True)
class RunConfig:
    checks: tuple = None           # None means every registered check
    max_n: int = MAX_N_DEFAULT
    json_out: str = None
    md_out: str = None

    def __post_init__(self):
        if not 1 <= self.max_n <= MAX_N_CAP:
            raise ValueError(f"max_n must be between 1 and {MAX_N_CAP}")
        if self.checks is not None:
            if not self.checks:
                raise ValueError("no check selected")
            for name in self.checks:
                if name not in REGISTRY:
                    raise UnknownCheck(f"unknown check {name!r}")


# -- memoized heavy fixtures ---------------------------------------------


@cache
def _s4tau():
    return build_s4tau()


@cache
def _s4tau_characters():
    t = _s4tau()
    return characters(t.algebra)


@cache
def _cs4() -> FDHopf:
    return function_algebra(symmetric_group(4))


@cache
def _qs4() -> FDHopf:
    return group_algebra(symmetric_group(4))


def _ok(check_id, metrics, labels, details):
    return CheckResult(check_id, "pass", metrics, labels, details)


def _bad(check_id, metrics, labels, details):
    return CheckResult(check_id, "fail", metrics, labels, details)


# -- the checks ------------------------------------------------------------


def check_incseq_oracle(cfg: RunConfig) -> CheckResult:
    """The entrywise completion formula and the pictorial completion
    agree on every increasing sequence with n up to the bound."""
    total = 0
    for n in range(1, cfg.max_n + 1):
        for k in range(0, n + 1):
            for s in all_sequences(k, n):
                if complete_formula(s) != complete_diagram(s):
                    return _bad("incseq-oracle", {"checked": total},
                                {"sequence": str(s.values)},
                                f"routes disagree at k={k}, n={n}, values={s.values}")
                total += 1
    return _ok("incseq-oracle", {"checked": total, "max_n": cfg.max_n}, {},
               "both completion routes agree on every sequence")


def check_incseq_generation(cfg: RunConfig) -> CheckResult:
    """Completions of the length-k sequences generate the full symmetric
    group when 0 < k < n and only the trivial group when k is 0 or n."""
    groups = 0
    for n in range(2, cfg.max_n + 1):
        for k in range(0, n + 1):
            g = generated_completion_group(k, n, bound=cfg.max_n)
            expected = math.factorial(n) if 0 < k < n else 1
            if g.order != expected:
                return _bad("incseq-generation", {"n": n, "k": k, "order": g.order},
                            {}, f"generated order {g.order}, expected {expected}")
            groups += 1
    m = {"groups": groups, "max_n": cfg.max_n}
    if cfg.max_n >= 4:
        m["completions_2_4"] = len(all_sequences(2, 4))
    return _ok("incseq-generation", m, {},
               "generated group orders match n! in the proper range and 1 at the ends")


def check_hopf_axioms(cfg: RunConfig) -> CheckResult:
    """The group algebra and the function algebra of S4 both satisfy all
    six structure-axiom suites."""
    failures = []
    dims, suites = set(), set()
    for name, H in (("group_algebra", _qs4()), ("function_algebra", _cs4())):
        rep = verify_hopf_axioms(H)
        dims.add(H.dim)
        suites.add(len(rep))
        bad = [k for k, v in rep.items() if not v]
        if bad:
            failures.append(f"{name}: {', '.join(bad)}")
    if failures:
        return _bad("hopf-axioms", {}, {}, "; ".join(failures))
    return _ok("hopf-axioms", {"dim": max(dims), "suites": min(suites)},
               {"algebras": "group_algebra(S4), function_algebra(S4)"},
               "associativity, unit, coassociativity, counit, bialgebra, antipode and star all hold")


def check_cocycle_valid(cfg: RunConfig) -> CheckResult:
    """The Klein bicharacter is a unital 2-cocycle with convolution
    inverse, and stays one after pulling back to the function algebra."""
    sigma = klein_bicharacter()
    if not verify_cocycle(sigma):
        return _bad("cocycle-valid", {}, {}, "bicharacter fails the cocycle identities")
    t = _s4tau()          # its constructor re-verifies the pulled-back cocycle
    minus = sum(1 for row in sigma.table for v in row if v == -1)
    return _ok("cocycle-valid", {"carrier_dim": sigma.carrier.dim, "minus_entries": minus,
                                 "pullback_dim": t.base.dim}, {},
               "cocycle identities hold on the four-dimensional carrier and on the pullback")


def check_s4tau_characters(cfg: RunConfig) -> CheckResult:
    """The twisted algebra is noncommutative and its character group has
    eight elements of dihedral type."""
    t = _s4tau()
    witness = t.algebra.noncommutative_witness()
    if witness is None:
        return _bad("s4tau-characters", {}, {}, "twisted algebra came out commutative")
    chars = _s4tau_characters()
    g = character_group(t.algebra, chars)
    tname = isomorphism_type(g).name
    if len(chars) != 8 or g.order != 8 or tname != "D4":
        return _bad("s4tau-characters",
                    {"characters": len(chars), "group_order": g.order},
                    {"group_type": tname}, "expected eight characters of dihedral type")
    i, j = witness
    return _ok("s4tau-characters", {"characters": 8, "group_order": 8},
               {"group_type": "D4",
                "witness": f"{t.algebra.basis_labels[i]}, {t.algebra.basis_labels[j]}"},
               "noncommutative twist with an order-8 dihedral character group")


def check_double_twist(cfg: RunConfig) -> CheckResult:
    """Twisting twice by the same cocycle restores every structure
    tensor of the original function algebra exactly."""
    t = _s4tau()
    back = double_twist(t)
    if not back.structure_equal(t.base):
        return _bad("double-twist", {"dim": back.dim}, {},
                    "second twist does not restore the original tensors")
    return _ok("double-twist", {"dim": back.dim}, {},
               "unit, multiplication, comultiplication, counit, antipode and star all return")


def check_klein_classification(cfg: RunConfig) -> CheckResult:
    """S4 has four Klein subgroups; exactly one is invariant under every
    inner automorphism and the other three are mutually conjugate."""
    G = symmetric_group(4)
    kleins = subgroups_of_type(G, "Klein")
    char = [H for H in kleins if is_characteristic_under_inner(G, H)]
    rest = [H for H in kleins if not is_characteristic_under_inner(G, H)]
    conj = all(are_conjugate(G, a, b) is not None for a in rest for b in rest)
    ok = (len(kleins) == 4 and len(char) == 1 and char[0] == klein_group()
          and len(rest) == 3 and conj)
    res = _ok if ok else _bad
    return res("klein-classification",
               {"klein_subgroups": len(kleins), "characteristic": len(char)}, {},
               "one normal copy made of double transpositions, three conjugate plain copies")


def check_d4_classification(cfg: RunConfig) -> CheckResult:
    """S4 has three order-8 dihedral subgroups, pairwise conjugate, each
    containing the normal Klein subgroup."""
    G = symmetric_group(4)
    d4s = subgroups_of_type(G, "D4")
    diag = klein_group()
    contain = all(all(v in H for v in diag) for H in d4s)
    conj = all(are_conjugate(G, a, b) is not None for a in d4s for b in d4s)
    ok = len(d4s) == 3 and contain and conj
    res = _ok if ok else _bad
    return res("d4-classification", {"d4_subgroups": len(d4s)}, {},
               "three conjugate dihedral subgroups, all containing the normal Klein subgroup")


def _character_check(check_id, spec, expected_count, expected_type):
    sols = solve_characters(spec)
    m = {"solutions": len(sols)}
    labels = {}
    ok = len(sols) == expected_count
    if expected_type is not None:
        g = character_group_of(spec)
        tname = isomorphism_type(g).name
        m["group_order"] = g.order
        labels["group_type"] = tname
        ok = ok and g.order == expected_count and tname == expected_type
    res = _ok if ok else _bad
    return res(check_id, m, labels,
               f"{len(sols)} character matrices for {spec.name}")


def check_characters_o2minus(cfg: RunConfig) -> CheckResult:
    """The 2x2 signed presentation has eight characters forming a
    dihedral group of order eight."""
    return _character_check("characters-o2minus", O2Minus(), 8, "D4")


def check_characters_so3minus(cfg: RunConfig) -> CheckResult:
    """The 3x3 signed presentation with the product-one condition has 24
    characters forming the symmetric group S4."""
    return _character_check("characters-so3minus", SO3Minus(), 24, "S4")


def check_characters_snplus(cfg: RunConfig) -> CheckResult:
    """The n-by-n magic presentation has exactly n! characters; the
    solver grid is capped at five."""
    counts = {}
    for n in range(3, min(5, cfg.max_n) + 1):
        sols = solve_characters(SnPlus(n))
        counts[f"solutions_{n}"] = len(sols)
        if len(sols) != math.factorial(n):
            return _bad("characters-snplus", counts, {},
                        f"expected {math.factorial(n)} solutions at n={n}")
    return _ok("characters-snplus", counts, {},
               "character counts match the factorials")


def check_characters_incseq(cfg: RunConfig) -> CheckResult:
    """The rectangular sequence presentation on two columns out of four
    has six characters and, being rectangular, no character group."""
    sols = solve_characters(IncSeq(2, 4))
    try:
        character_group_of(IncSeq(2, 4))
        return _bad("characters-incseq", {"solutions": len(sols)}, {},
                    "rectangular presentation unexpectedly produced a character group")
    except ValueError:
        pass
    ok = len(sols) == 6
    res = _ok if ok else _bad
    return res("characters-incseq", {"solutions": len(sols)},
               {"character_group": "undefined for rectangular shapes"},
               "six completions, one per increasing sequence")


def check_sign_table(cfg: RunConfig) -> CheckResult:
    """The 81 commutation signs are -1 exactly when one index pair
    agrees and the other does not."""
    table = relation_sign_table(klein_bicharacter())
    minus = sum(1 for v in table.values() if v == -1)
    ok = len(table) == 81 and minus == 36
    res = _ok if ok else _bad
    return res("sign-table", {"entries": len(table), "minus_entries": minus}, {},
               "anticommutation exactly at mixed agreement of row and column indices")


def check_det_to_perm(cfg: RunConfig) -> CheckResult:
    """Reordering the determinant monomials into the twisted product
    turns every sign positive, for sizes two and three."""
    total = 0
    for size in (2, 3):
        signs = determinant_to_permanent_signs(size)
        total += len(signs)
    return _ok("det-to-perm", {"permutations": total}, {},
               "the twisted determinant takes the shape of the permanent")


def check_rho_image(cfg: RunConfig) -> CheckResult:
    """The sign-vector action is a homomorphism from S4 onto the 24
    character matrices of the 3x3 presentation, with determinant equal
    to the permutation sign."""
    G = symmetric_group(4)
    mats = {x: rho(x) for x in G}
    hom = all((mats[x] * mats[y]).rows == mats[x * y].rows for x in G for y in G)
    dets = all(mats[x].det() == x.sign() for x in G)
    sols = {s.matrix for s in solve_characters(SO3Minus())}
    image = {m.rows for m in mats.values()}
    ok = hom and dets and image == sols and len(image) == 24
    res = _ok if ok else _bad
    return res("rho-image", {"image_size": len(image)},
               {"det_equals_sign": str(dets)},
               "a faithful three-dimensional action matching the character matrices exactly")


def check_normalizer_24(cfg: RunConfig) -> CheckResult:
    """The rotations normalizing the diagonal Klein image are exactly 24
    monomial matrices, the even-permutation images together with the
    negated odd ones."""
    norm = klein_normalizer_so3()
    G = symmetric_group(4)
    expect = {rho(x).rows if x.sign() == 1 else (-rho(x)).rows for x in G}
    got = {m.rows for m in norm}
    res = _ok if got == expect else _bad
    return res("normalizer-24", {"normalizer_order": len(norm)}, {},
               "24 rotations permuting the diagonal reflections among themselves")


def check_automorphisms_24(cfg: RunConfig) -> CheckResult:
    """Every conjugated generator matrix satisfies all defining
    relations, and the 24 induced permutations of the character matrices
    are pairwise distinct."""
    actions = all_automorphism_actions()
    distinct = len(set(actions.values()))
    ok = len(actions) == 24 and distinct == 24
    res = _ok if ok else _bad
    return res("automorphisms-24", {"maps": len(actions), "distinct_actions": distinct},
               {}, "a faithful action of S4 on the twisted 3x3 presentation")


def check_phi_well_defined(cfg: RunConfig) -> CheckResult:
    """For every x the conjugated block matrix over the 2x2 model
    satisfies all 3x3 relations, so each twist of the embedding is well
    defined."""
    count = 0
    for x in symmetric_group(4).sorted_elements():
        phi_embedding(x)        # raises RelationFailure when not well defined
        count += 1
    return _ok("phi-well-defined", {"maps": count}, {},
               "all 24 conjugates of the block embedding preserve the relations")


def check_embedding_images_3(cfg: RunConfig) -> CheckResult:
    """Evaluating the embedded generators at the eight 2x2 characters
    yields exactly three distinct eight-element subgroups, all dihedral,
    all containing the diagonal Klein image, pairwise conjugate."""
    images = embedding_character_images()
    subs = [matrices_to_subgroup(s) for s in images]
    G = symmetric_group(4)
    types = {isomorphism_type(h).name for h in subs}
    diag = klein_group()
    contain = all(all(v in h for v in diag) for h in subs)
    conj = all(are_conjugate(G, a, b) is not None for a in subs for b in subs)
    dmats = {m.rows for m in klein_diag_matrices()}
    contain_mats = all(dmats <= set(s) for s in images)
    ok = (len(images) == 3 and types == {"D4"} and contain and conj and contain_mats)
    res = _ok if ok else _bad
    return res("embedding-images-3", {"distinct_images": len(images)},
               {"types": ",".join(sorted(types))},
               "three conjugate dihedral images, each containing the diagonal Klein matrices")


def check_generation_counterexample(cfg: RunConfig) -> CheckResult:
    """The embedded dihedral subgroup is the reference copy of D4, and
    joined with the classical completions it generates the full symmetric
    group."""
    rep = generation_counterexample()
    ok = rep.d_group.order == 8 and rep.full_join.order == 24 and rep.matches_reference
    res = _ok if ok else _bad
    return res("generation-counterexample",
               {"d_order": rep.d_group.order, "full_join_order": rep.full_join.order},
               {"matches_reference": str(rep.matches_reference)},
               "the embedded dihedral subgroup is the reference D4, and joined with "
               "the classical completions it generates the symmetric group")


def _evaluation_map(H: FDHopf, chars: list, G) -> HopfMap:
    """H -> C(G), e_i -> sum over x in G of chi_x(e_i) delta_x, where G is
    character_group(H, chars) and chi_x the character that x moves the
    counit's slot to; its matrix is the cleared character-value matrix."""
    ordered = sorted(chars, key=lambda ch: tuple(Fraction(v) for v in ch.values))
    unit_slot = [ch.values for ch in ordered].index(H.counit) + 1
    X, dX = _cleared([ordered[x(unit_slot) - 1].values for x in G.sorted_elements()])
    return HopfMap(H, function_algebra(G), X.T, dX)


def check_diagonal_twist_characters(cfg: RunConfig) -> CheckResult:
    """Twisting C(S4) along the normal (diagonal) Klein subgroup gives a
    commutative algebra again, with 24 characters forming a group of
    type S4."""
    t = build_s4tau(V=klein_group())
    commutative = t.algebra.is_commutative()
    labels = {"commutative": str(commutative)}
    try:
        chars = characters(t.algebra)
        g = character_group(t.algebra, chars)
    except KleintwistError as exc:
        return _bad("diagonal-twist-characters", {}, labels,
                    f"character extraction failed: {type(exc).__name__}: {exc}")
    metrics = {"characters": len(chars), "group_order": g.order}
    labels["group_type"] = isomorphism_type(g).name
    if not commutative or len(chars) != 24 or labels["group_type"] != "S4":
        return _bad("diagonal-twist-characters", metrics, labels,
                    "expected a commutative twist with 24 characters of type S4")
    # The certificate: evaluation at the characters is an isomorphism of
    # Hopf *-algebras onto the function algebra of the character group.
    ev = _evaluation_map(t.algebra, chars, g)
    if not ev.verify():
        return _bad("diagonal-twist-characters", metrics, labels,
                    f"evaluation map to C(characters) fails at {ev.failure}")
    try:
        inverse = ev.inverse()
    except ValueError:
        return _bad("diagonal-twist-characters", metrics, labels,
                    "evaluation map to C(characters) is not invertible")
    if not inverse.verify():
        return _bad("diagonal-twist-characters", metrics, labels,
                    f"inverse evaluation map fails at {inverse.failure}")
    return _ok("diagonal-twist-characters", metrics, labels,
               "the diagonal twist is commutative with character group S4")


REGISTRY = {
    "incseq-oracle": check_incseq_oracle,
    "incseq-generation": check_incseq_generation,
    "hopf-axioms": check_hopf_axioms,
    "cocycle-valid": check_cocycle_valid,
    "s4tau-characters": check_s4tau_characters,
    "double-twist": check_double_twist,
    "klein-classification": check_klein_classification,
    "d4-classification": check_d4_classification,
    "characters-o2minus": check_characters_o2minus,
    "characters-so3minus": check_characters_so3minus,
    "characters-snplus": check_characters_snplus,
    "characters-incseq": check_characters_incseq,
    "sign-table": check_sign_table,
    "det-to-perm": check_det_to_perm,
    "rho-image": check_rho_image,
    "normalizer-24": check_normalizer_24,
    "automorphisms-24": check_automorphisms_24,
    "phi-well-defined": check_phi_well_defined,
    "embedding-images-3": check_embedding_images_3,
    "generation-counterexample": check_generation_counterexample,
    "diagonal-twist-characters": check_diagonal_twist_characters,
}


def all_check_ids() -> list:
    return sorted(REGISTRY)


def run_one(name: str, cfg: RunConfig) -> CheckResult:
    import time
    if name not in REGISTRY:
        raise UnknownCheck(f"unknown check {name!r}")
    start = time.perf_counter()
    try:
        result = REGISTRY[name](cfg)
    except Exception as exc:   # deliberate: an error result, not a crash
        result = CheckResult(name, "error", {}, {},
                             f"{type(exc).__name__}: {exc}")
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult(result.check_id, result.status, result.metrics,
                       result.labels, result.details, round(elapsed, 3))


def run(cfg: RunConfig) -> list:
    names = sorted(set(cfg.checks)) if cfg.checks is not None else all_check_ids()
    return sorted((run_one(n, cfg) for n in names), key=lambda r: r.check_id)
