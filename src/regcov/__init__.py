"""regcov: covering, separation and membership for regular languages.

Decides whether a regular language can be covered or separated within the
classes at, sigma1, bsigma1, sigma2, fo2 and fo, by saturating optimal
imprints over finite idempotent semirings, and synthesizes verified
separating covers for the constructive classes.
"""

from .errors import (AlphabetCapError, Caps, DEFAULT_CAPS,
                     DeterminizationCapError, InputError, MonoidCapError,
                     PieceCapError, PtStateCapError, RegcovError,
                     ResourceCapError, SaturationCapError, WordBudgetError)
from .rx import Regex, regex_parse, regex_to_text
from .fa import (Alphabet, Dfa, MonoidMorphism, Nfa, alphabet_exact,
                 alphabet_languages, alphabet_star, determinize, equivalent,
                 includes, is_empty, minimize, monoid_validate, nfa_complement,
                 nfa_concat, nfa_from_json, nfa_intersection, nfa_to_json,
                 nfa_to_regex, nfa_union, regex_to_nfa, transition_monoid,
                 universal_language, upward_closure)
from .semiring import (AlphabetSemiring, PowersetMonoidSemiring,
                       ProductSemiring, RatingSet, RelationSemiring, Semiring,
                       SemiringMorphism, SubsetLattice, TableSemiring,
                       validate_semiring)
from .imprints import ImprintSet
from .rating import (Extension, RatingMap, imprint_pullback,
                     rm_alphabet_augment, rm_from_morphism, rm_from_multiset,
                     rm_from_nfa)
from .saturation import (ClassId, CoverDecision, at_imprint,
                         decide_pointed_covering, decide_universal_covering,
                         rm_trivial_imprint, saturate_pointed,
                         saturate_universal)
from .pieces import (bsigma1_template_witness, is_k_piecewise_testable,
                     is_piece, pieces_upto, pt_partition, template_regex,
                     template_unambiguous)
from .covers import (Cover, CoverPiece, VerifyReport, at_cover, bsigma1_cover,
                     fo2_cover, restrict_cover, sigma1_cover, union_covers,
                     verify_cover)

__version__ = "0.1.0"
