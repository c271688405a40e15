"""Acceptance suite.

Thirteen numbered criteria, each a single test that measures its own
wall time against a fixed budget, checks everything exactly (integer and
rational equality, never a tolerance), and prints one PASS or FAIL line.
"""

import math
import time

from kleintwist.cocycle import build_s4tau, double_twist, klein_bicharacter
from kleintwist.hopf import (all_axioms_pass, character_group, characters,
                             verify_hopf_axioms)
from kleintwist.incseq import (all_sequences, complete_diagram,
                               complete_formula, generated_completion_group)
from kleintwist.perm import (are_conjugate, is_characteristic_under_inner,
                             isomorphism_type, klein_group, subgroups_of_type,
                             symmetric_group)
from kleintwist.present import (IncSeq, O2Minus, SnPlus, SO3Minus,
                                character_group_of,
                                determinant_to_permanent_signs,
                                relation_sign_table, solve_characters)
from kleintwist.twistcalc import (all_automorphism_actions,
                                  embedding_character_images,
                                  generation_counterexample,
                                  klein_normalizer_so3, matrices_to_subgroup,
                                  phi_embedding, verify_twisted_presentation)

BUDGETS = {1: 1.0, 2: 1.0, 3: 5.0, 4: 60.0, 5: 1.0, 6: 10.0, 7: 5.0,
           8: 1.0, 9: 1.0, 10: 30.0, 11: 10.0, 12: 30.0, 13: 1.0}


def _run(num, label, body):
    budget = BUDGETS[num]
    problems = []
    start = time.perf_counter()
    try:
        body(problems)
    except Exception as exc:  # a crash is a failed criterion, not an error
        problems.append(f"exception {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        problems.append(f"took {elapsed:.2f}s, budget {budget:.0f}s")
    status = "PASS" if not problems else "FAIL"
    line = f"criterion {num:02d} {status} ({elapsed:.3f}s / {budget:.0f}s) {label}"
    if problems:
        line += " :: " + "; ".join(problems)
    print(line)
    assert not problems, line


def test_criterion_01_o2minus_characters():
    def body(problems):
        sols = solve_characters(O2Minus())
        if len(sols) != 8:
            problems.append(f"{len(sols)} solutions, want 8")
        g = character_group_of(O2Minus())
        t = isomorphism_type(g)
        if (g.order, t.name) != (8, "D4"):
            problems.append(f"group order {g.order} type {t.name}, want 8 D4")
    _run(1, "o2minus has 8 characters forming D4", body)


def test_criterion_02_so3minus_characters():
    def body(problems):
        sols = solve_characters(SO3Minus())
        if len(sols) != 24:
            problems.append(f"{len(sols)} solutions, want 24")
        g = character_group_of(SO3Minus())
        t = isomorphism_type(g)
        if (g.order, t.name) != (24, "S4"):
            problems.append(f"group order {g.order} type {t.name}, want 24 S4")
    _run(2, "so3minus has 24 characters forming S4", body)


def test_criterion_03_snplus_and_incseq_counts():
    def body(problems):
        for n in (3, 4, 5):
            count = len(solve_characters(SnPlus(n)))
            if count != math.factorial(n):
                problems.append(f"snplus:{n} gives {count}, want {n}!")
        inc = solve_characters(IncSeq(2, 4))
        if len(inc) != 6:
            problems.append(f"incseq:2:4 gives {len(inc)}, want 6")
    _run(3, "snplus:n has n! characters for n=3,4,5; incseq:2:4 has 6", body)


def test_criterion_04_completion_routes_and_groups():
    def body(problems):
        for n in range(1, 8):
            for k in range(0, n + 1):
                for s in all_sequences(k, n):
                    if complete_formula(s) != complete_diagram(s):
                        problems.append(f"routes disagree at {s.values} in ({k},{n})")
                        return
                g = generated_completion_group(k, n, bound=7)
                want = math.factorial(n) if 1 <= k <= n - 1 else 1
                if g.order != want:
                    problems.append(f"({k},{n}) generates order {g.order}, want {want}")
    _run(4, "both completion routes agree for n<=7 and completions of "
            "I_(k,n) generate S_n exactly when 0<k<n", body)


def test_criterion_05_six_completions_generate_s4():
    def body(problems):
        if len(all_sequences(2, 4)) != 6:
            problems.append("I_(2,4) does not have 6 sequences")
        g = generated_completion_group(2, 4)
        if g != symmetric_group(4):
            problems.append(f"generated order {g.order}, want S4")
    _run(5, "the 6 completions of I_(2,4) generate S4", body)


def test_criterion_06_twisted_algebra():
    def body(problems):
        t = build_s4tau()
        report = verify_hopf_axioms(t.algebra)
        if not all_axioms_pass(report):
            bad = sorted(k for k, v in report.items() if not v)
            problems.append(f"axiom suites failed: {bad}")
        w = t.algebra.noncommutative_witness()
        if w is None:
            problems.append("twisted algebra is commutative")
        chars = characters(t.algebra)
        g = character_group(t.algebra, chars)
        ty = isomorphism_type(g)
        if (len(chars), g.order, ty.name) != (8, 8, "D4"):
            problems.append(f"characters {len(chars)}, group {g.order} {ty.name}, "
                            "want 8 8 D4")
    _run(6, "the twisted algebra is a Hopf star algebra, noncommutative, "
            "with character group D4 of order 8", body)


def test_criterion_07_double_twist_restores():
    def body(problems):
        t = build_s4tau()
        back = double_twist(t)
        if not back.structure_equal(t.base):
            problems.append("double twist differs from the base algebra")
    _run(7, "twisting twice by the same cocycle restores every structure tensor", body)


def test_criterion_08_subgroup_classification():
    def body(problems):
        S4 = symmetric_group(4)
        kleins = subgroups_of_type(S4, "Klein")
        if len(kleins) != 4:
            problems.append(f"{len(kleins)} Klein subgroups, want 4")
        invariant = [H for H in kleins if is_characteristic_under_inner(S4, H)]
        if len(invariant) != 1 or invariant[0] != klein_group():
            problems.append("the normal Klein subgroup is not the diagonal one")
        d4s = subgroups_of_type(S4, "D4")
        if len(d4s) != 3:
            problems.append(f"{len(d4s)} D4 subgroups, want 3")
        for H in d4s:
            if not klein_group().is_subgroup_of(H):
                problems.append("a D4 misses the diagonal Klein subgroup")
        for i in range(len(d4s)):
            for j in range(i + 1, len(d4s)):
                if are_conjugate(S4, d4s[i], d4s[j]) is None:
                    problems.append(f"D4 #{i} and #{j} are not conjugate")
    _run(8, "S4 has 4 Klein subgroups (1 normal, the diagonal) and 3 "
            "conjugate D4 subgroups containing it", body)


def test_criterion_09_sign_tables():
    def body(problems):
        table = relation_sign_table(klein_bicharacter())
        if len(table) != 81:
            problems.append(f"sign table has {len(table)} entries, want 81")
        for ((i, j), (k, l)), v in table.items():
            want = -1 if (i == k) != (j == l) else 1
            if v != want:
                problems.append(f"sign at (({i},{j}),({k},{l})) is {v}")
                return
        for size in (2, 3):
            signs = determinant_to_permanent_signs(size)
            if len(signs) != math.factorial(size):
                problems.append(f"size {size}: {len(signs)} rows")
            for tau, s in signs.items():
                if s * tau.sign() != 1:
                    problems.append(f"size {size}: coefficient at {tau} is not +1")
                    return
    _run(9, "the 81-entry commutation sign table matches the coincidence "
            "pattern and the twisted determinant has all +1 coefficients", body)


def test_criterion_10_twisted_relations_hold():
    def body(problems):
        for kind, want in (("o2minus", 24), ("so3minus", 100)):
            ids = verify_twisted_presentation(kind)
            if len(ids) != want:
                problems.append(f"{kind}: checked {len(ids)} relations, want {want}")
        if "det" not in verify_twisted_presentation("so3minus"):
            problems.append("determinant relation was not checked")
    _run(10, "the twisted model generators satisfy every o2minus and "
             "so3minus relation, decided by exact parametrization", body)


def test_criterion_11_automorphism_actions():
    def body(problems):
        norm = klein_normalizer_so3()
        if len(norm) != 24:
            problems.append(f"normalizer has {len(norm)} elements, want 24")
        actions = all_automorphism_actions()
        if len(actions) != 24:
            problems.append(f"{len(actions)} actions computed, want 24")
        if len(set(actions.values())) != len(actions):
            problems.append("two group elements induce the same action")
    _run(11, "the rotation normalizer of the diagonal Klein group has 24 "
             "elements and all 24 induced character actions are distinct", body)


def test_criterion_12_embedding():
    def body(problems):
        for x in symmetric_group(4):
            phi_embedding(x)  # raises if any relation breaks
        images = embedding_character_images()
        if len(images) != 3:
            problems.append(f"{len(images)} embedded images, want 3")
        subs = [matrices_to_subgroup(m) for m in images]
        for h in subs:
            if (h.order, isomorphism_type(h).name) != (8, "D4"):
                problems.append("an embedded image is not a D4 of order 8")
        S4 = symmetric_group(4)
        for i in range(len(subs)):
            for j in range(i + 1, len(subs)):
                if are_conjugate(S4, subs[i], subs[j]) is None:
                    problems.append(f"images #{i} and #{j} are not conjugate")
    _run(12, "the block embedding preserves every relation for all 24 "
             "conjugations and its character images are 3 conjugate D4s", body)


def test_criterion_13_generation_counterexample():
    def body(problems):
        rep = generation_counterexample()
        if not rep.matches_reference:
            problems.append("embedded D4 differs from the reference copy")
        if rep.full_join != symmetric_group(4):
            problems.append(f"join with S4 has order {rep.full_join.order}")
    _run(13, "the embedded D4 is the reference copy, and joined with the "
             "classical completions it generates S4", body)
