"""Build stage (the paper's steps 1, 4 and 5): emit the SPF computation.

:func:`build_stage` turns a :class:`~repro.pipeline.artifacts.CaseMatch`
into the raw (unoptimized) :class:`~repro.spf.Computation`: allocations,
permutation population (via :mod:`.permutation`), UF population
statements, derived size symbols, universal-quantifier enforcement, the
destination data allocation and the final copy — each tagged with its
phase, then ordered by phase.
"""

from __future__ import annotations

from repro.ir import (
    Conjunction,
    Expr,
    Geq,
    IntSet,
    UFCall,
    Var,
    equals,
)
from repro.pipeline.artifacts import BuiltComputation, CaseMatch, ComposedRelation
from repro.spf import Computation, Stmt, SymbolTable
from repro.spf import statements as st
from repro.spf.codegen.printers import RUNTIME_FUNCTIONS

from .compose import _domain_size_expr
from .sizing import derive_size_symbols, dest_data_size
from .conversion import (
    DEST_DATA,
    PERMUTATION,
    PH_ALLOC,
    PH_COPY,
    PH_DSTALLOC,
    PH_DYNALLOC,
    PH_ENFORCE,
    PH_PERMSYM,
    PH_POP,
    PH_SIZESYM,
    SOURCE_DATA,
    SynthesisError,
)
from .permutation import (
    alias_prefix_ufs,
    bucket_permutation_spec,
    emit_permutation,
    strengthen_reductions,
)


def build_stage(
    composed: ComposedRelation,
    match: CaseMatch,
    *,
    optimize: bool,
    fn_name: str,
    notes: list[str],
) -> BuiltComputation:
    """Steps 1+4+5: emit every statement of the conversion inspector."""
    src = composed.pair.src
    dst = composed.pair.dst
    dst_r = composed.dst_renamed
    uf_map = composed.uf_map
    conj = composed.conjunction

    src_space = match.src_space
    dst_vars = match.dst_vars
    dense_exprs = match.dense_exprs
    values = match.values
    kd_expr = match.kd_expr
    search_vars = match.search_vars
    position_var = match.position_var
    use_perm_lookup = match.use_perm_lookup
    plans = match.plans
    plan_by_uf = match.plan_by_uf

    symtab = SymbolTable(
        arrays=(
            set(src.index_ufs())
            | set(dst_r.index_ufs())
            | {SOURCE_DATA, DEST_DATA}
        ),
        functions=RUNTIME_FUNCTIONS,
        objects={PERMUTATION},
        floats={SOURCE_DATA},
    )

    params = sorted(src.index_ufs()) + sorted(src.size_symbols()) + [SOURCE_DATA]
    param_set = set(params)
    comp = Computation(fn_name)
    empty_space = IntSet(())

    # Derived size symbols are decided first: whether any symbol needs
    # ``len(P)`` controls how the permutation may be implemented.
    insert_ufs = [p.uf for p in plans if p.kind == "insert"]
    sym_sources = derive_size_symbols(src, dst_r, conj, match, insert_ufs)

    # --- permutation population -------------------------------------
    bucket_spec = (
        bucket_permutation_spec(src, dst_r)
        if match.need_perm_structure
        else None
    )
    inline_bucket = (
        bucket_spec is not None
        and optimize
        and all(origin != PERMUTATION for origin in sym_sources.values())
    )
    pos_stateful = emit_permutation(
        comp,
        src,
        dst_r,
        match,
        bucket_spec=bucket_spec,
        inline_bucket=inline_bucket,
        notes=notes,
    )
    pos_definition = match.pos_definition

    for sym, origin in sym_sources.items():
        if origin == PERMUTATION:
            comp.new_stmt(
                st.Length(sym, PERMUTATION),
                empty_space,
                reads=[PERMUTATION],
                writes=[sym],
                phase=PH_PERMSYM,
            )
            notes.append(f"{sym} = len(P) (derived from the permutation)")

    strengthen_reductions(
        src, match, bucket_spec=bucket_spec, optimize=optimize, notes=notes
    )
    aliased_ufs = alias_prefix_ufs(
        comp,
        src,
        match,
        bucket_spec=bucket_spec,
        pos_stateful=pos_stateful,
        notes=notes,
    )

    # --- allocations ---------------------------------------------------
    def alloc_phase_for(size_expr: Expr) -> int:
        needed = size_expr.sym_names() - param_set
        if not needed:
            return PH_ALLOC
        if needed <= {s for s, o in sym_sources.items() if o == PERMUTATION}:
            return PH_DYNALLOC
        return PH_DSTALLOC

    array_plans = [p for p in plans if p.kind in ("scatter", "min", "max")]
    for plan in array_plans:
        domain = dst_r.uf_domains.get(plan.uf)
        if domain is None:
            raise SynthesisError(f"UF {plan.uf!r} has no declared domain")
        size = _domain_size_expr(domain)
        init = (
            _domain_size_expr(dst_r.uf_ranges[plan.uf])
            if plan.kind == "min" and plan.uf in dst_r.uf_ranges
            else Expr(0)
        )
        comp.new_stmt(
            st.Alloc(plan.uf, size, init),
            empty_space,
            writes=[plan.uf],
            phase=alloc_phase_for(size),
        )
    for uf in insert_ufs:
        comp.new_stmt(
            st.NewOrderedSet(uf),
            empty_space,
            writes=[uf],
            phase=PH_ALLOC,
        )

    # --- population ------------------------------------------------------
    def extended_space(extra_pos: bool) -> IntSet:
        """Source space, optionally extended with the bound position var."""
        if not extra_pos or position_var is None:
            return src_space
        assert pos_definition is not None
        constraint = equals(Var(position_var), pos_definition)
        return IntSet(
            src_space.tuple_vars + (position_var,),
            [src_space.single_conjunction.add(constraint)],
        )

    population_reads = sorted(src.index_ufs()) + (
        [PERMUTATION] if (use_perm_lookup and not pos_stateful) else []
    )
    if pos_stateful:
        assert position_var is not None and bucket_spec is not None
        comp.new_stmt(
            st.BucketFill(position_var, "P_fill", dense_exprs[bucket_spec[0]]),
            src_space,
            reads=sorted(src.index_ufs()) + ["P_fill"],
            writes=["__pos__", "P_fill"],
            phase=PH_POP,
        )
        population_reads = population_reads + ["__pos__"]

    # Copy-propagate a cheap position definition (no permutation lookup)
    # directly into statement expressions; expensive definitions stay as a
    # once-per-iteration LetEq via the extended iteration space.
    propagate_pos = (
        position_var is not None
        and pos_definition is not None
        and not pos_definition.uf_calls()
    )

    def finalize_expr(expr: Expr) -> Expr:
        if propagate_pos and position_var in expr.var_names():
            assert pos_definition is not None and position_var is not None
            return expr.substitute_vars({position_var: pos_definition})
        return expr

    for plan in plans:
        uses_pos = position_var is not None and any(
            position_var in e.var_names()
            for e in list(plan.args) + [plan.value]
        )
        space = extended_space(
            uses_pos and not propagate_pos and not pos_stateful
        )
        args = tuple(finalize_expr(a) for a in plan.args)
        value = finalize_expr(plan.value)
        if plan.kind == "insert":
            body = st.Insert(plan.uf, (value,))
        elif plan.kind == "scatter":
            body = st.Scatter(plan.uf, args, value)
        else:
            body = st.Reduce(plan.uf, args, value, plan.kind)
        comp.new_stmt(
            body,
            space,
            reads=population_reads,
            writes=[plan.uf],
            phase=PH_POP,
        )

    # --- size symbols from insert structures ----------------------------
    for sym, origin in sym_sources.items():
        if origin != PERMUTATION:
            comp.new_stmt(
                st.Length(sym, origin),
                empty_space,
                reads=[origin],
                writes=[sym],
                phase=PH_SIZESYM,
            )
            notes.append(f"{sym} = len({origin}) (insert-populated UF size)")

    # --- Step 4: enforce universal quantifiers --------------------------
    enforced_ufs: set[str] = set()
    for uf, quantifier in dst_r.monotonic.items():
        if uf in aliased_ufs:
            # Prefix sums are non-decreasing by construction.
            enforced_ufs.add(uf)
            continue
        plan = plan_by_uf.get(uf)
        if plan is None:
            continue
        if plan.kind == "insert":
            enforced_ufs.add(uf)  # the OrderedSet enforces on insert
            if optimize:
                # Materialize to a plain array before the copy consumes it:
                # guards and binary searches then index without structure
                # call overhead.
                comp.new_stmt(
                    st.Materialize(uf),
                    empty_space,
                    reads=[uf],
                    writes=[uf],
                    phase=PH_ENFORCE,
                )
            notes.append(
                f"{uf}: strict monotonic quantifier enforced by the "
                "ordered insert structure"
            )
            continue
        if quantifier.strict:
            raise SynthesisError(
                f"strictly monotonic UF {uf!r} populated by "
                f"{plan.kind!r} cannot be enforced"
            )
        domain = dst_r.uf_domains[uf]
        dvar = domain.tuple_vars[0]
        upper = domain.single_conjunction.upper_bounds(dvar)[0]
        enforce_space = IntSet(
            (dvar,),
            [
                Conjunction(
                    [Geq(Var(dvar) - 1), Geq(upper - Var(dvar))]
                )
            ],
        )
        comp.new_stmt(
            st.PrefixFix(uf, Var(dvar), "max"),
            enforce_space,
            reads=[uf],
            writes=[uf],
            phase=PH_ENFORCE,
        )
        enforced_ufs.add(uf)
        notes.append(
            f"{uf}: monotonic quantifier enforced by a forward max pass"
        )

    # --- destination data allocation ------------------------------------
    dst_size = dest_data_size(src, dst_r, conj, match, sym_sources)
    comp.new_stmt(
        st.Alloc(DEST_DATA, dst_size, floating=True),
        empty_space,
        writes=[DEST_DATA],
        phase=alloc_phase_for(dst_size),
    )

    # --- Step 5: the copy -------------------------------------------------
    copy_vars = list(src_space.tuple_vars)
    copy_constraints = list(src_space.single_conjunction.constraints)
    needed_dst_vars: list[str] = []

    def need_var(v: str):
        if v in needed_dst_vars or v in copy_vars:
            return
        needed_dst_vars.append(v)

    copy_kd_expr = finalize_expr(kd_expr)
    # Names come from sets: walk them sorted, so the copy's lets print in
    # the same order whatever PYTHONHASHSEED is.
    for v in sorted(copy_kd_expr.var_names()):
        if v in dst_vars:
            if pos_stateful and v == position_var:
                continue  # bound by the stateful position statement
            need_var(v)
    # Pull in transitive dependencies of resolvable vars.
    frontier = list(needed_dst_vars)
    while frontier:
        v = frontier.pop()
        value = values.get(v)
        if value is None:
            continue
        for dep in sorted(value.var_names()):
            if dep in dst_vars and dep not in needed_dst_vars:
                needed_dst_vars.append(dep)
                frontier.append(dep)

    resolvable = [v for v in needed_dst_vars if values[v] is not None]
    # Bind the position first so fusion can share its (possibly expensive)
    # permutation lookup with the population statements.
    resolvable.sort(key=lambda v: 0 if v == position_var else 1)
    searches = [v for v in needed_dst_vars if values[v] is None]
    for v in resolvable:
        copy_vars.append(v)
        value = pos_definition if v == position_var else values[v]
        assert value is not None
        copy_constraints.append(equals(Var(v), value))
    for v in searches:
        if v not in search_vars:
            raise SynthesisError(
                f"variable {v!r} in the data layout is neither resolvable "
                "nor searchable"
            )
        copy_vars.append(v)
        for c in conj.constraints:
            if not c.mentions_var(v):
                continue
            # Rewrite the constraint over source terms where possible.
            rewritten = c
            for name in c.var_names():
                if name in values and values[name] is not None and name != v:
                    rewritten = rewritten.substitute_vars(
                        {name: values[name]}  # type: ignore[dict-item]
                    )
            if rewritten.var_names() <= set(copy_vars):
                copy_constraints.append(rewritten)

    copy_space = IntSet(tuple(copy_vars), [Conjunction(copy_constraints)])
    copy_reads = [SOURCE_DATA] + sorted(
        {
            call.name
            for c in copy_space.single_conjunction
            for call in c.uf_calls()
        }
        | ({PERMUTATION} if (use_perm_lookup and not pos_stateful) else set())
        | ({"__pos__"} if pos_stateful else set())
    )
    reads_enforced = any(
        uf in enforced_ufs or uf in insert_ufs for uf in copy_reads
    )
    copy_phase = PH_COPY if (reads_enforced or searches) else PH_POP
    if copy_phase == PH_POP:
        notes.append("copy fused candidate: same phase as UF population")
    else:
        notes.append(
            "copy must follow quantifier enforcement (index property "
            "blocks fusion with population)"
        )
    comp.new_stmt(
        st.Scatter(
            DEST_DATA,
            (copy_kd_expr,),
            UFCall(SOURCE_DATA, [match.src_data_expr]),
        ),
        copy_space,
        reads=copy_reads,
        writes=[DEST_DATA],
        phase=copy_phase,
    )

    # Order statements by phase (stable), then re-number default schedules.
    ordered = sorted(comp.stmts, key=lambda s: s.phase)
    comp.replace_stmts([])
    comp._counter = 0
    for stmt in ordered:
        comp.add_stmt(
            Stmt(
                stmt.body,
                stmt.space,
                None,
                stmt.reads,
                stmt.writes,
                "",
                stmt.phase,
            )
        )

    returns = tuple(
        sorted(set(uf_map[u] for u in dst.index_ufs()))
        + sorted(sym_sources)
        + [DEST_DATA]
    )

    return BuiltComputation(
        comp=comp,
        params=tuple(params),
        returns=returns,
        symtab=symtab,
    )
