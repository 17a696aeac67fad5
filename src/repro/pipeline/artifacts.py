"""Typed artifacts flowing between the staged compilation pipeline's stages.

The conversion path is an explicit pipeline::

    DescriptorPair                      (what to convert)
      → ComposedRelation               (steps 1-2: invert + compose)
      → CaseMatch                      (step 3: classify constraints)
      → BuiltComputation               (steps 4-5: raw SPF Computation)
      → [PassManager]                  (optimized Computation, in place)
      → (Program, Lowering)            (the lowered program + the
                                        backend's source)

Each stage consumes the previous artifact and nothing else, which is what
makes the stages independently testable and the pass pipeline swappable.
The synthesis stages themselves live in :mod:`repro.synthesis`
(``compose`` / ``casematch`` / ``build`` / ``lower``); this module only
defines the data contracts, so it depends on nothing above the IR/SPF
layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.formats.descriptor import FormatDescriptor
    from repro.ir import Conjunction, Expr, IntSet, Relation
    from repro.spf import Computation, SymbolTable


@dataclass(frozen=True)
class DescriptorPair:
    """The pipeline's input: source and destination format descriptors."""

    src: "FormatDescriptor"
    dst: "FormatDescriptor"

    @property
    def names(self) -> tuple[str, str]:
        return (self.src.name, self.dst.name)


@dataclass
class ComposedRelation:
    """Output of the compose stage (the paper's steps 1-2).

    ``dst_renamed`` is the destination descriptor with tuple variables and
    colliding UF names disambiguated against the source; ``uf_map`` maps
    the destination's original UF names onto the renamed ones (callers use
    it to label outputs).  ``conjunction`` is the composed relation's
    constraint system after range-guard pruning and Case 6 block
    decomposition.
    """

    pair: DescriptorPair
    dst_renamed: "FormatDescriptor"
    uf_map: dict[str, str]
    relation: "Relation"
    conjunction: "Conjunction"


@dataclass
class CaseMatch:
    """Output of the case-match stage (the paper's step 3).

    Resolution of every destination tuple variable over source
    information, the identified position/search variables, the permutation
    decision, and one population-statement plan per unknown UF.  Mutable:
    the build stage refines ``pos_definition`` and ``plans`` (reduction
    strengthening, prefix-array aliasing).
    """

    src_space: "IntSet"
    src_vars: tuple[str, ...]
    dst_vars: tuple[str, ...]
    dense_exprs: dict[str, "Expr"]
    src_data_expr: "Expr"
    values: dict[str, Optional["Expr"]]
    unknown_ufs: list[str]
    kd_var: str
    kd_expr: "Expr"
    search_vars: set[str]
    position_var: Optional[str]
    pos_definition: Optional["Expr"]
    identity_position: bool
    preserve_order: bool
    need_perm_structure: bool
    use_perm_lookup: bool
    emit_perm: bool
    plans: list = field(default_factory=list)
    plan_by_uf: dict = field(default_factory=dict)


@dataclass
class BuiltComputation:
    """Output of the build stage: the raw (unoptimized) SPF computation."""

    comp: "Computation"
    params: tuple[str, ...]
    returns: tuple[str, ...]
    symtab: "SymbolTable"
