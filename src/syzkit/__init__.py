"""Free resolutions of homogeneous ideals over prime fields, computed by
lifting the Schreyer frame of leading syzygy terms."""

from .algebra import (
    DomainError,
    OpCounters,
    Ring,
    term_times_vector,
)
from .orderings import BaseOrdering, OrderingChain
from .groebner import GroebnerBasis, buchberger, divide_with_remainder
from .frame import FrameLevel, build_frame, lead_syz
from .lift import (
    SubtreeCache,
    lift_hybrid,
    lift_reduce,
    lift_tree,
)
from .resolution import (
    BettiTable,
    GradedFreeModule,
    Resolution,
    betti_minimal_from_nonminimal,
    betti_nonminimal,
    hilbert_numerator,
    minimize,
    resolve,
)
from .examples_gen import AgrIdeal, AgrSpec, gen_agr, gen_random_homogeneous

__version__ = "0.1.0"

# The command-line names load on first use (PEP 562), so that
# ``python -m syzkit.cli`` does not find the module already imported.
_CLI_NAMES = ("InputDocument", "ParseError", "main", "parse_input")

# the names the README lists; ``from syzkit import *`` loads the CLI names
__all__ = [
    "DomainError", "OpCounters", "Ring", "term_times_vector",
    "BaseOrdering", "OrderingChain",
    "GroebnerBasis", "buchberger", "divide_with_remainder",
    "FrameLevel", "build_frame", "lead_syz",
    "SubtreeCache", "lift_hybrid", "lift_reduce", "lift_tree",
    "BettiTable", "GradedFreeModule", "Resolution",
    "betti_minimal_from_nonminimal", "betti_nonminimal",
    "hilbert_numerator", "minimize", "resolve",
    "AgrIdeal", "AgrSpec", "gen_agr", "gen_random_homogeneous",
    *_CLI_NAMES,
]


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
