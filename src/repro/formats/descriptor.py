"""Sparse format descriptors (Section 3.1 of the paper).

A :class:`FormatDescriptor` packages everything Table 1 lists for a format:

* the **sparse-to-dense map** — a relation from the sparse iteration space
  to the dense coordinates (must be a function),
* the **data access relation** — sparse iteration space to data space,
* the **domain and range** of every uninterpreted function,
* the **universal quantifiers** — monotonic (per-UF) and reordering
  (whole-tensor ordering) constraints.

Descriptors are purely mathematical; the glue between a descriptor's UF
names and a concrete runtime container lives in
:mod:`repro.formats.bindings`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.ir import (
    IntSet,
    MonotonicQuantifier,
    OrderingQuantifier,
    Relation,
    parse_relation,
    parse_set,
)


class FormatError(ValueError):
    """Raised for ill-formed format descriptors."""


class FormatDescriptor:
    """A complete description of one sparse tensor format."""

    #: The :class:`repro.formats.levels.Composition` this descriptor was
    #: derived from, or None for hand-written descriptors.  Renamed
    #: copies (:meth:`rename_disjoint`) deliberately drop it: their UF
    #: names no longer match the composition's.
    levels = None

    def __init__(
        self,
        name: str,
        sparse_to_dense: Relation | str,
        data_access: Relation | str,
        uf_domains: Mapping[str, IntSet | str] | None = None,
        uf_ranges: Mapping[str, IntSet | str] | None = None,
        monotonic: Iterable[MonotonicQuantifier] = (),
        ordering: Optional[OrderingQuantifier] = None,
        coord_ufs: Mapping[str, str] | None = None,
        shape_syms: Sequence[str] = (),
        position_var: str = "",
        description: str = "",
    ):
        if isinstance(sparse_to_dense, str):
            sparse_to_dense = parse_relation(sparse_to_dense)
        if isinstance(data_access, str):
            data_access = parse_relation(data_access)
        self.name = name
        self.sparse_to_dense = sparse_to_dense
        self.data_access = data_access
        self.uf_domains = {
            uf: parse_set(s) if isinstance(s, str) else s
            for uf, s in (uf_domains or {}).items()
        }
        self.uf_ranges = {
            uf: parse_set(s) if isinstance(s, str) else s
            for uf, s in (uf_ranges or {}).items()
        }
        self.monotonic = {q.uf: q for q in monotonic}
        self.ordering = ordering
        self.coord_ufs = dict(coord_ufs or {})
        self.shape_syms = tuple(shape_syms)
        self.position_var = position_var or (
            sparse_to_dense.in_vars[0] if sparse_to_dense.in_vars else ""
        )
        self.description = description
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.data_access.in_vars != self.sparse_to_dense.in_vars:
            raise FormatError(
                f"{self.name}: data access input tuple "
                f"{self.data_access.in_vars} differs from sparse iteration "
                f"space {self.sparse_to_dense.in_vars}"
            )
        if not self.sparse_to_dense.is_function_syntactically():
            raise FormatError(
                f"{self.name}: the sparse-to-dense map must be a function "
                "(required by inspector synthesis and executor transforms)"
            )
        declared = set(self.uf_domains) | set(self.uf_ranges)
        used = self.sparse_to_dense.uf_names() | self.data_access.uf_names()
        undeclared = used - declared
        if undeclared:
            raise FormatError(
                f"{self.name}: uninterpreted functions {sorted(undeclared)} "
                "appear in the maps but have no domain/range declaration"
            )
        if self.ordering is not None:
            dense = set(self.ordering.dense_vars)
            if dense != set(self.sparse_to_dense.out_vars):
                raise FormatError(
                    f"{self.name}: ordering quantifier is over "
                    f"{sorted(dense)} but the dense space is "
                    f"{self.sparse_to_dense.out_vars}"
                )

    # ------------------------------------------------------------------
    @property
    def sparse_vars(self) -> tuple[str, ...]:
        return self.sparse_to_dense.in_vars

    @property
    def dense_vars(self) -> tuple[str, ...]:
        return self.sparse_to_dense.out_vars

    @property
    def rank(self) -> int:
        """Tensor rank (dimensionality of the dense space)."""
        return len(self.dense_vars)

    def uf_names(self) -> set[str]:
        """All uninterpreted functions the format's index structure uses."""
        return set(self.uf_domains) | set(self.uf_ranges)

    def index_ufs(self) -> set[str]:
        """UFs appearing in the maps (the arrays a conversion must build)."""
        return self.sparse_to_dense.uf_names() | self.data_access.uf_names()

    def user_function_names(self) -> set[str]:
        """Functions appearing only inside quantifiers (user-defined).

        The paper: "functions that appear only within universal quantifiers
        are user-defined and full definitions must be provided".
        """
        in_quantifiers: set[str] = set()
        if self.ordering is not None:
            in_quantifiers |= self.ordering.uf_names()
        return in_quantifiers - self.index_ufs()

    def size_symbols(self) -> set[str]:
        """Symbolic constants of the descriptor (NNZ, ND, ... plus shape)."""
        syms = self.sparse_to_dense.sym_names() | self.data_access.sym_names()
        for s in list(self.uf_domains.values()) + list(self.uf_ranges.values()):
            syms |= s.sym_names()
        return syms

    def derived_size_symbols(self) -> set[str]:
        """Symbols a conversion must compute (everything but the shape).

        The paper notes the tensor *shape* (NR, NC, ...) cannot be derived
        from a sparse format — outermost rows/columns may be all zero — so
        shape symbols are required inputs, while e.g. NNZ and ND are derived.
        """
        return self.size_symbols() - set(self.shape_syms)

    # ------------------------------------------------------------------
    def rename_disjoint(self, suffix: str) -> "FormatDescriptor":
        """A copy with tuple vars and UFs suffixed, for source/dest pairing."""
        uf_map = {uf: f"{uf}{suffix}" for uf in self.uf_names()}
        var_map = {
            v: f"{v}{suffix}"
            for v in self.sparse_vars + self.data_access.out_vars
        }
        sd = self.sparse_to_dense.rename_ufs(uf_map).with_tuple_vars(
            [var_map[v] for v in self.sparse_to_dense.in_vars],
            self.sparse_to_dense.out_vars,
        )
        da = self.data_access.rename_ufs(uf_map).with_tuple_vars(
            [var_map[v] for v in self.data_access.in_vars],
            [var_map.get(v, v) for v in self.data_access.out_vars],
        )
        return FormatDescriptor(
            name=self.name,
            sparse_to_dense=sd,
            data_access=da,
            uf_domains={uf_map[u]: s for u, s in self.uf_domains.items()},
            uf_ranges={uf_map[u]: s for u, s in self.uf_ranges.items()},
            monotonic=[
                MonotonicQuantifier(uf_map[q.uf], strict=q.strict)
                for q in self.monotonic.values()
            ],
            ordering=self.ordering,
            coord_ufs={
                dense: uf_map.get(uf, uf) for dense, uf in self.coord_ufs.items()
            },
            shape_syms=self.shape_syms,
            position_var=var_map.get(self.position_var, self.position_var),
            description=self.description,
        )

    # ------------------------------------------------------------------
    def display(self) -> str:
        """Render the descriptor in the style of Table 1."""
        lines = [f"Format {self.name}"]
        if self.description:
            lines.append(f"  {self.description}")
        lines.append(f"  map:  {self.sparse_to_dense}")
        lines.append(f"  data: {self.data_access}")
        for uf in sorted(self.uf_names()):
            domain = self.uf_domains.get(uf)
            rng = self.uf_ranges.get(uf)
            if domain is not None:
                lines.append(f"  domain({uf}) = {domain}")
            if rng is not None:
                lines.append(f"  range({uf})  = {rng}")
        for q in self.monotonic.values():
            lines.append(f"  {q}")
        if self.ordering is not None:
            coord_ufs = [
                self.coord_ufs.get(v, f"coord_{v}")
                for v in self.ordering.dense_vars
            ]
            lines.append(
                "  " + self.ordering.display(self.position_var, coord_ufs)
            )
        return "\n".join(lines)

    def __repr__(self):
        return f"FormatDescriptor({self.name!r})"
