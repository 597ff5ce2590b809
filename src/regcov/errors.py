"""Error types and resource caps.

Every hard limit in the library is a named cap carried by a :class:`Caps`
value.  Exceeding a cap raises a dedicated error naming the cap; nothing is
ever truncated silently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


class RegcovError(Exception):
    """Base class for all library errors."""


class InputError(RegcovError):
    """Malformed input: bad syntax, bad alphabet, inconsistent instance."""


class ResourceCapError(RegcovError):
    """A configured resource cap was exceeded."""

    def __init__(self, cap_name: str, cap: int, detail: str = ""):
        self.cap_name = cap_name
        self.cap = cap
        self.detail = detail
        msg = f"cap '{cap_name}' exceeded (limit {cap})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DeterminizationCapError(ResourceCapError):
    pass


class MonoidCapError(ResourceCapError):
    pass


class SaturationCapError(ResourceCapError):
    """Raised when a fixpoint or closure would enumerate too many elements;
    `what` names it as printed, such as "class fo2" or "fo2 word images"."""

    def __init__(self, cap: int, what: str, detail: str = ""):
        self.what = what
        super().__init__("max_elements", cap, f"{what}: {detail}" if detail else what)


class PieceCapError(ResourceCapError):
    pass


class PtStateCapError(ResourceCapError):
    pass


@dataclass(frozen=True)
class Caps:
    """Resource limits shared by all operations.

    The defaults are sized for desk-scale instances.  Every field can be
    overridden per call; `max_elements`, `max_det_states` (`--max-states`)
    and `max_k` also through the CLI flags or an instance file's options.
    Each cap bounds a structure that the constructions build; no
    construction lists words.
    """

    max_det_states: int = 1 << 20      # subset-construction states; for
                                       # sigma1 covers, the labelling walk;
                                       # for fo2 covers, each node machine
                                       # before minimization and each
                                       # conversion between directions
    max_monoid: int = 4096             # transition-monoid elements
    max_elements: int = 200_000        # maximal elements of an imprint, and
                                       # the pairs of every (state, word
                                       # image) closure (`rating.reach`);
                                       # a relation part's word-image tables
                                       # are solved in closed form, uncapped
    max_pieces: int = 10_000           # fo2 cover pieces: the distinct
                                       # labels in context of each recursion
                                       # node, summed over the nodes
    max_pt_states: int = 50_000        # states of each level's partition
                                       # for bsigma1 covers (the deepening
                                       # stops at the first level past it),
                                       # and of the oracle's pt-k partition;
                                       # also the pieces of length <= k,
                                       # the width of a level's piece sets
    max_k: int = 4                     # piece-length bound of bsigma1 covers

    def with_overrides(self, **kw) -> "Caps":
        return replace(self, **{k: v for k, v in kw.items() if v is not None})


DEFAULT_CAPS = Caps()
