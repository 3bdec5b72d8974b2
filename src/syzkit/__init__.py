"""Free resolutions of homogeneous ideals over prime fields, computed by
lifting the Schreyer frame of leading syzygy terms."""

from .algebra import (
    DomainError,
    OpCounters,
    Ring,
    monomial_divides,
    term_times_vector,
)
from .orderings import BaseOrdering, OrderingChain
from .groebner import GroebnerBasis, buchberger, divide_with_remainder
from .frame import FrameLevel, SchreyerFrame, build_frame, lead_syz
from .lift import (
    SubtreeCache,
    lift_hybrid,
    lift_reduce,
    lift_subtree,
    lift_tree,
    psi,
)
from .resolution import (
    BettiTable,
    GradedFreeModule,
    Resolution,
    betti_minimal_from_nonminimal,
    betti_nonminimal,
    block_rank,
    constant_block,
    hilbert_numerator,
    minimize,
    resolve,
)
from .examples_gen import AgrIdeal, AgrSpec, gen_agr, gen_random_homogeneous
from .cli import InputDocument, ParseError, main, parse_input

__version__ = "0.1.0"
