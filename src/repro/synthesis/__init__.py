"""Inspector synthesis for sparse format conversion (the paper's core)."""

from .cases import (
    NormalizedConstraint,
    Resolver,
    UFStatementPlan,
    classify,
    normalize_for_uf,
    select_plans,
)
from .conversion import SynthesisError, SynthesizedConversion
from .compose import compose_stage
from .casematch import case_match_stage
from .build import build_stage
from .lower import lower_stage
from .engine import synthesize
from .analysis import constraints_per_unknown_uf, render_table2
from .cache import (
    cache_stats,
    clear_memo,
    format_fingerprint,
    synthesize_cached,
    warm,
)
from .tandem import TandemResult, tandem
from .optimize import rewrite_linear_search

__all__ = [
    "NormalizedConstraint",
    "Resolver",
    "SynthesisError",
    "SynthesizedConversion",
    "TandemResult",
    "UFStatementPlan",
    "build_stage",
    "cache_stats",
    "case_match_stage",
    "classify",
    "compose_stage",
    "clear_memo",
    "constraints_per_unknown_uf",
    "format_fingerprint",
    "lower_stage",
    "normalize_for_uf",
    "render_table2",
    "rewrite_linear_search",
    "select_plans",
    "synthesize",
    "synthesize_cached",
    "tandem",
    "warm",
]
