"""regcov: covering, separation and membership for regular languages.

Decides whether a regular language can be covered or separated within the
classes at, sigma1, bsigma1, sigma2, fo2 and fo, by saturating optimal
imprints over finite idempotent semirings, and synthesizes verified
separating covers for the constructive classes.
"""

from .errors import (Caps, DEFAULT_CAPS, InputError, RegcovError, ResourceCapError,
                     SaturationCapError)
from .rx import Regex, regex_parse, regex_to_text
from .fa import (Alphabet, Dfa, MonoidMorphism, Nfa, alphabet_exact,
                 alphabet_star, determinize, equivalent, includes, is_empty,
                 minimize, nfa_complement, nfa_concat, nfa_from_json,
                 nfa_intersection, nfa_to_regex, nfa_union, regex_to_nfa,
                 transition_monoid, universal_language, upward_closure)
from .semiring import PowersetMonoidSemiring, ProductSemiring, RelationSemiring, Semiring
from .imprints import ImprintSet
from .rating import (AlphabetSemiring, Extension, RatingMap, rm_alphabet_augment,
                     rm_from_morphism, rm_from_multiset, rm_from_nfa)
from .saturation import (ClassId, CoverDecision, at_imprint,
                         decide_pointed_covering, decide_universal_covering,
                         saturate_pointed, saturate_universal)
from .pieces import pt_partition
from .covers import (Cover, VerifyReport, at_cover, bsigma1_cover, fo2_cover,
                     restrict_cover, sigma1_cover, verify_cover)

__version__ = "0.1.0"
