"""Exact computational algebra for twisted finite symmetry.

The package builds finite-dimensional Hopf star-algebras over the
rationals, twists them by 2-cocycles, enumerates characters of small
universal presentations, and wires all of that into a verification
command line (`kleintwist verify`).  Everything is exact: no floats,
no tolerances.
"""

from .checks import CheckResult, RunConfig, all_check_ids, run
from .cocycle import (Cocycle2, TwistedS4, build_s4tau, double_twist,
                      klein_bicharacter, pullback, rebind, trivial_cocycle,
                      twist, verify_cocycle)
from .errors import (CharacterActionMismatch, ClosureFailure, CountMismatch,
                     EvaluationNotPermutation, InfiniteCharacterSpace,
                     KleintwistError, NonSplitQuotient, NotASubgroup,
                     PatternMismatch, RelationFailure, SignMismatch,
                     TwistNotHopf, UnknownCheck)
from .hopf import (Character, FDHopf, HopfMap, all_axioms_pass,
                   character_group,
                   character_to_permutation, characters, convolution_identity,
                   function_algebra, fourier_iso, group_algebra,
                   restriction_surjection, verify_hopf_axioms)
from .incseq import (BinaryRectMatrix, IncreasingSequence, all_sequences,
                     complete_diagram, complete_formula,
                     generated_completion_group, matrix_rep)
from .perm import (GroupType, PermGroup, Permutation, all_subgroups,
                   are_conjugate, as_subgroup, easy_klein, generate,
                   is_characteristic_under_inner, isomorphism_type,
                   klein_group, normalizer, subgroups_of_type,
                   symmetric_group)
from .present import (Bidegree, CharacterSolution, IncSeq, O2, O2Minus,
                      PresentationSpec, SO3, SO3Minus, SnPlus,
                      character_group_of, commutation_sign,
                      determinant_to_permanent_signs, parse_presentation,
                      relation_sign_table, solve_characters)
from .twistcalc import (GenerationReport, SignedMatrix, TwistedElement,
                        all_automorphism_actions, automorphism_check,
                        character_value, embedding_character_images,
                        generation_counterexample, generator_matrix,
                        is_zero, klein_diag_matrices, klein_normalizer_so3,
                        matrices_to_subgroup, phi_embedding, rho, rho_image,
                        twisted_mul, verify_twisted_presentation)

__version__ = "1.0.0"

__all__ = [
    "Bidegree", "BinaryRectMatrix", "Character", "CharacterActionMismatch",
    "CharacterSolution", "CheckResult", "ClosureFailure", "Cocycle2",
    "CountMismatch", "EvaluationNotPermutation", "FDHopf", "GenerationReport",
    "GroupType", "HopfMap", "IncSeq", "IncreasingSequence",
    "InfiniteCharacterSpace", "KleintwistError", "NonSplitQuotient",
    "NotASubgroup", "O2", "O2Minus", "PatternMismatch", "PermGroup",
    "Permutation", "PresentationSpec", "RelationFailure", "RunConfig",
    "SO3", "SO3Minus", "SignMismatch", "SignedMatrix", "SnPlus",
    "TwistNotHopf", "TwistedElement", "TwistedS4", "UnknownCheck",
    "all_automorphism_actions", "all_check_ids", "all_sequences",
    "all_subgroups", "are_conjugate", "as_subgroup", "automorphism_check",
    "all_axioms_pass", "build_s4tau", "character_group", "character_group_of",
    "character_to_permutation", "character_value", "characters",
    "commutation_sign", "complete_diagram", "complete_formula",
    "convolution_identity",
    "determinant_to_permanent_signs", "double_twist", "easy_klein",
    "embedding_character_images", "function_algebra", "fourier_iso",
    "generate", "generated_completion_group", "generation_counterexample",
    "generator_matrix", "group_algebra", "is_characteristic_under_inner",
    "is_zero", "isomorphism_type", "klein_bicharacter",
    "klein_diag_matrices", "klein_group", "klein_normalizer_so3",
    "matrices_to_subgroup", "matrix_rep", "normalizer",
    "parse_presentation", "phi_embedding", "pullback", "rebind",
    "relation_sign_table", "restriction_surjection", "rho", "rho_image",
    "run", "solve_characters", "subgroups_of_type", "symmetric_group",
    "trivial_cocycle", "twist", "twisted_mul", "verify_cocycle",
    "verify_hopf_axioms", "verify_twisted_presentation",
]
