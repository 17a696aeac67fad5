"""Permutation realization and the reorderings it unlocks.

The build stage delegates here for everything concerning the permutation
``P`` inserted by the paper's step 1: detecting when the lexicographic
reordering reduces to a stable bucket sort (and when that sort can be
inlined into plain index arrays), emitting the permutation population
statements, strengthening min/max reductions to plain assignments when
positions ascend, and aliasing a prefix-sum-shaped UF directly to the
counting sort's prefix array.
"""

from __future__ import annotations

from typing import Optional

from repro.formats.descriptor import FormatDescriptor
from repro.ir import Conjunction, Expr, FloorDiv, Geq, IntSet, Var
from repro.pipeline.artifacts import CaseMatch
from repro.spf import Computation
from repro.spf import statements as st

from .compose import _bare_var_name, _dense_var_definitions
from .conversion import (
    PERMUTATION,
    PH_ALLOC,
    PH_PERM,
    PH_PERMSYM,
)


def bucket_permutation_spec(
    src: FormatDescriptor, dst: FormatDescriptor
) -> Optional[tuple[str, Expr]]:
    """Detect when the permutation reduces to a stable bucket sort.

    Both orderings must be plain lexicographic; with the destination key
    ``(c, rest...)``, removing ``c`` from the source key must leave exactly
    ``rest`` — then source order already sorts entries within each value of
    ``c`` and a stable counting sort by ``c`` realizes the destination
    order.  Returns ``(bucket_dense_var, nbuckets_expr)`` or None.
    """
    if src.ordering is None or dst.ordering is None:
        return None
    rename = dict(zip(src.dense_vars, dst.dense_vars))
    src_key = [
        _bare_var_name(k.rename_vars(rename)) for k in src.ordering.key_exprs
    ]
    dst_key = [_bare_var_name(k) for k in dst.ordering.key_exprs]
    if any(v is None for v in src_key + dst_key):
        return None
    if set(src_key) != set(dst_key) or len(dst_key) < 2:
        return None
    bucket = dst_key[0]
    if [v for v in src_key if v != bucket] != dst_key[1:]:
        return None
    # Bucket count: the dense bound of the bucket coordinate in the
    # destination map's range (e.g. 0 <= j < NC gives NC buckets).
    dense_range = dst.sparse_to_dense.range(strict=False)
    uppers = dense_range.single_conjunction.upper_bounds(bucket)
    if not uppers:
        return None
    back = dict(zip(dst.dense_vars, src.dense_vars))
    return back.get(bucket, bucket), uppers[0] + 1


def key_ranges(
    src: FormatDescriptor, dst: FormatDescriptor
) -> tuple[Optional[Expr], ...]:
    """One exclusive upper bound per destination ordering key component.

    Sized like :func:`bucket_permutation_spec`'s buckets, from the bound
    ``ub`` of a dense variable ``v`` in the destination's dense range: a
    bare ``v`` gets ``ub + 1`` and a blocked ``(v) // c`` gets
    ``ub // c + 1``.  A Morton key, any other shape, or a bound over
    anything but the source's size symbols gets None; ``()`` when no
    component has a bound.  A lowering reads the ranges before the first
    insert, so they may name only the inspector's scalar parameters.
    """
    dense_range = dst.sparse_to_dense.range(strict=False).single_conjunction
    params = set(src.size_symbols())
    ranges: list[Optional[Expr]] = []
    for key in dst.ordering.key_exprs:
        var, denom = _bare_var_name(key), 1
        atom = key.terms[0][0] if len(key.terms) == 1 else None
        if isinstance(atom, FloorDiv) and key == atom.as_expr():
            var, denom = _bare_var_name(atom.numer), atom.denom
        uppers = dense_range.upper_bounds(var) if var is not None else []
        ub = uppers[0] if uppers else None
        if ub is None or ub.uf_names() or not (
            ub.sym_names() | ub.var_names() <= params
        ):
            ranges.append(None)
        else:
            ranges.append((FloorDiv(ub, denom) if denom > 1 else ub) + 1)
    return tuple(ranges) if any(r is not None for r in ranges) else ()


def emit_permutation(
    comp: Computation,
    src: FormatDescriptor,
    dst_r: FormatDescriptor,
    match: CaseMatch,
    *,
    bucket_spec: Optional[tuple[str, Expr]],
    inline_bucket: bool,
    notes: list[str],
) -> bool:
    """Emit the permutation population statements; returns ``pos_stateful``.

    With ``inline_bucket`` the counting sort is maintained directly in
    index arrays and positions are produced statefully (``P_fill``) —
    ``match.pos_definition`` is cleared.  Otherwise a structure call
    (``LexBucketPermutation`` / ``OrderedList``) is populated over the
    source space.
    """
    if not match.emit_perm:
        return False
    empty_space = IntSet(())
    src_space = match.src_space
    dense_exprs = match.dense_exprs
    if inline_bucket:
        # Specialize *and inline* the permutation: a stable counting sort
        # over the leading destination key component, maintained directly in
        # index arrays (no per-element structure calls).
        assert bucket_spec is not None
        bucket_var, nbuckets = bucket_spec
        comp.new_stmt(
            st.Alloc("P_count", nbuckets + 1), empty_space, phase=PH_ALLOC
        )
        comp.new_stmt(
            st.Histogram("P_count", dense_exprs[bucket_var]),
            src_space,
            phase=PH_PERM,
        )
        prefix_space = IntSet(
            ("x",),
            [Conjunction([Geq(Var("x") - 1), Geq(nbuckets - Var("x"))])],
        )
        comp.new_stmt(
            st.PrefixFix("P_count", Var("x"), "+"), prefix_space,
            phase=PH_PERMSYM,
        )
        comp.new_stmt(
            st.ArrayCopy("P_fill", "P_count"), empty_space, phase=PH_PERMSYM
        )
        match.pos_definition = None
        notes.append(
            "lexicographic reordering realized as an inlined stable bucket "
            f"sort over {bucket_var} ({nbuckets} buckets)"
        )
        return True
    if bucket_spec is not None:
        dense_order = list(src.dense_vars)
        bucket_var, nbuckets = bucket_spec
        which = dense_order.index(bucket_var)
        comp.new_stmt(
            st.NewBucketPermutation(
                PERMUTATION, nbuckets, which, len(dense_order)
            ),
            empty_space,
            phase=PH_ALLOC,
        )
        comp.new_stmt(
            st.Insert(PERMUTATION, tuple(dense_exprs[v] for v in dense_order)),
            src_space,
            phase=PH_PERM,
        )
        notes.append(
            "lexicographic reordering realized as a stable bucket sort: "
            f"P = LexBucketPermutation({nbuckets}, which={which})"
        )
        return False
    dense_order = tuple(src.dense_vars)
    key: tuple[Expr, ...] = ()
    ranges: tuple[Optional[Expr], ...] = ()
    if dst_r.ordering is not None:
        # Lambda parameters follow the dense-space order used at insert
        # time; the key is the destination's ordering key rewritten over
        # the source's dense variable names (positional match).
        to_src = dict(zip(dst_r.dense_vars, src.dense_vars))
        key = tuple(k.rename_vars(to_src) for k in dst_r.ordering.key_exprs)
        ranges = key_ranges(src, dst_r)
    new_list = st.NewOrderedList(
        PERMUTATION,
        dense_order,
        key,
        unique=dst_r.ordering is not None and dst_r.ordering.collapse_ties,
        ranges=ranges,
    )
    created = comp.new_stmt(new_list, empty_space, phase=PH_ALLOC)
    comp.new_stmt(
        st.Insert(PERMUTATION, tuple(dense_exprs[v] for v in dense_order)),
        src_space,
        phase=PH_PERM,
    )
    notes.append(created.text)
    return False


def strengthen_reductions(
    src: FormatDescriptor,
    match: CaseMatch,
    *,
    bucket_spec: Optional[tuple[str, Expr]],
    optimize: bool,
    notes: list[str],
) -> None:
    """Degrade min/max reductions to assignments when positions ascend.

    The paper's "loop fusion and dead code elimination make it a simple
    assignment": when destination positions ascend along the source
    traversal — the identity-position case — each min/max reduction slot is
    last written by its extremal value, so the reduction degrades to a
    plain assignment.  With a stable bucket permutation the same holds
    within each bucket for slots indexed by the bucket coordinate alone.
    """
    position_var = match.position_var
    ascending_positions = optimize and position_var is not None and (
        match.identity_position or match.preserve_order
    )
    if ascending_positions:
        for plan in match.plans:
            if plan.kind == "max" and position_var is not None and any(
                position_var in e.var_names()
                for e in list(plan.args) + [plan.value]
            ):
                plan.kind = "scatter"
                notes.append(
                    f"{plan.uf}: max reduction strengthened to assignment "
                    "(positions ascend along the source traversal)"
                )
    elif optimize and bucket_spec is not None and position_var is not None:
        # With a stable bucket permutation, positions ascend *within each
        # bucket*: a max reduction whose target slot is a function of the
        # bucket coordinate alone is last-written by its maximum.  The
        # bucket coordinate may appear as any of its source-side
        # definitions (the tuple variable or the coordinate UF).
        bucket_defs = _dense_var_definitions(src).get(bucket_spec[0], [])
        for plan in match.plans:
            if (
                plan.kind == "max"
                and len(plan.args) == 1
                and any(
                    (plan.args[0] - d).is_constant() for d in bucket_defs
                )
                and position_var in plan.value.var_names()
            ):
                plan.kind = "scatter"
                notes.append(
                    f"{plan.uf}: max reduction strengthened to assignment "
                    "(positions ascend within each bucket)"
                )


def alias_prefix_ufs(
    comp: Computation,
    src: FormatDescriptor,
    match: CaseMatch,
    *,
    bucket_spec: Optional[tuple[str, Expr]],
    pos_stateful: bool,
    notes: list[str],
) -> set[str]:
    """Alias prefix-shaped UFs to the inlined counting sort's prefix array.

    A UF populated as ``uf[bucket + 1] = position + 1`` is exactly the
    counting sort's prefix array — ``uf[b]`` is the start of bucket ``b``
    — so the per-element stores and the monotonic fix-up for empty buckets
    collapse into one array copy taken after the prefix pass.
    """
    aliased_ufs: set[str] = set()
    position_var = match.position_var
    if not (pos_stateful and bucket_spec is not None and position_var):
        return aliased_ufs
    empty_space = IntSet(())
    bucket_defs = _dense_var_definitions(src).get(bucket_spec[0], [])
    for plan in list(match.plans):
        if (
            plan.kind == "scatter"
            and len(plan.args) == 1
            and any((plan.args[0] - d) == 1 for d in bucket_defs)
            and (plan.value - Var(position_var)) == 1
        ):
            match.plans.remove(plan)
            comp.new_stmt(
                st.ArrayCopy(plan.uf, "P_count"), empty_space,
                phase=PH_PERMSYM,
            )
            aliased_ufs.add(plan.uf)
            notes.append(
                f"{plan.uf}: aliased to the counting sort's prefix "
                "array (per-element stores and monotonic fix-up "
                "eliminated)"
            )
    return aliased_ufs
