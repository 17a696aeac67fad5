"""repro.pipeline — the staged conversion pipeline's data contracts and passes.

Artifacts (:mod:`~repro.pipeline.artifacts`) type the handoffs between
the synthesis stages; the :class:`PassManager` (:mod:`~repro.pipeline.passes`)
runs the optimization stage as registered, individually toggleable passes.
Importing this package registers the standard pipeline
(:mod:`~repro.pipeline.standard`): dedup → dce → fusion → binary-search
(opt-in).
"""

from .artifacts import (
    BuiltComputation,
    CaseMatch,
    ComposedRelation,
    DescriptorPair,
)
from .passes import (
    BINARY_SEARCH,
    PASSES,
    Pass,
    PassConfig,
    PassContext,
    PassManager,
    PassResult,
)
from . import standard  # noqa: F401  (registers the standard passes)

__all__ = [
    "BINARY_SEARCH",
    "BuiltComputation",
    "CaseMatch",
    "ComposedRelation",
    "DescriptorPair",
    "PASSES",
    "Pass",
    "PassConfig",
    "PassContext",
    "PassManager",
    "PassResult",
]
