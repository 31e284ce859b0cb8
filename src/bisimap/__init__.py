"""Execution presheaves and bisimulation maps for labelled transition systems.

The library models finite labelled transition systems without initial states,
builds their execution presheaves (strong, fair, and branching variants),
and decides behavioural equivalences two ways: through concrete transfer
conditions and through diagonal-filler checks against small monos on the
semantic presheaves.
"""

__version__ = "0.1.0"

from .errors import InternalCheckError, ParseError, PreconditionError, UnsupportedError
from .lts import (
    AlwaysAfterSpec,
    Execution,
    FairLts,
    Lasso,
    Lts,
    StreettSpec,
    executions_up_to,
    fair_lassos,
    is_simulation,
    parse_aut,
    restrict,
    serialize_aut,
)
from .presheaf import (
    FinPoset,
    FinPresheaf,
    NatTrans,
    StreamSquare,
    dump_presheaf,
    enumerate_mono_squares,
    is_bisim_map_bounded,
)
from .semantics import (
    base_presheaf,
    branching_sem,
    branching_sem_map,
    fair_sem,
    fair_sem_map,
    strong_sem,
    strong_sem_map,
)
from .equiv import (
    BisimMapReport,
    PartitionRelation,
    Verdict,
    branching_bisimilarity,
    branching_quotient,
    check_bisim_map,
    check_branching_bisim_fn,
    check_branching_sim,
    check_fair_bisim_fn,
    check_fair_reflection,
    check_fair_sim,
    check_forall_fair_bisim,
    check_hildebrandt_open,
    check_strong_bisim_fn,
    forall_fair_quotient,
)
from .corpus import load_corpus
from .words import EPSILON, TAU, TAU_BAR, LassoTrace, StretchPoint, Word
