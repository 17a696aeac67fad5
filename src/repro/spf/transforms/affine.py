"""Classic affine loop transformations on SPF statements.

Section 2.1 of the paper notes that SPF "supports many loop transformations
including fusion, skewing, unrolling, tiling, and others."  This module
provides the user-directed ones on a :class:`Computation`'s statements:

* :func:`interchange` — permute two loop levels,
* :func:`shift` — offset a loop's iteration vector (loop skewing against a
  constant),
* :func:`skew` — skew one loop by a multiple of an outer loop,
* :func:`tile` — strip-mine a loop into a tile loop and an intra-tile loop,
* :func:`full_unroll` — replicate the body of a constant-trip loop.

Like CHiLL scripts, these are *user-directed*: the caller asserts legality
(the framework checks only that the result still scans into loops).
"""

from __future__ import annotations

from repro.ir import Conjunction, FloorDiv, IntSet, Var, equals, greater_equal, less

from ..computation import Computation, Schedule, Stmt, _lower_levels


class TransformError(ValueError):
    """Raised when a transformation cannot be applied."""


def _get_stmt(comp: Computation, name: str) -> tuple[int, Stmt]:
    for index, stmt in enumerate(comp.stmts):
        if stmt.name == name:
            return index, stmt
    raise TransformError(f"no statement named {name!r}")


def _replace(comp: Computation, index: int, stmt: Stmt) -> Stmt:
    # Validate the new iteration space still lowers before committing.
    try:
        _lower_levels(stmt)
    except ValueError as err:
        raise TransformError(
            f"transformed statement does not scan into loops: {err}"
        ) from err
    stmts = list(comp.stmts)
    stmts[index] = stmt
    comp.replace_stmts(stmts)
    return stmt


def interchange(comp: Computation, name: str, var_a: str, var_b: str) -> Stmt:
    """Swap two loop levels of a statement (the Section 2.1 example)."""
    index, stmt = _get_stmt(comp, name)
    tuple_vars = list(stmt.space.tuple_vars)
    if var_a not in tuple_vars or var_b not in tuple_vars:
        raise TransformError(
            f"{var_a!r}/{var_b!r} are not loop variables of {name!r}"
        )
    ia, ib = tuple_vars.index(var_a), tuple_vars.index(var_b)
    tuple_vars[ia], tuple_vars[ib] = tuple_vars[ib], tuple_vars[ia]
    new_space = IntSet(tuple_vars, stmt.space.conjunctions)
    assert stmt.schedule is not None
    entries = list(stmt.schedule.entries)
    entries[2 * ia + 1], entries[2 * ib + 1] = (
        entries[2 * ib + 1],
        entries[2 * ia + 1],
    )
    new_stmt = Stmt(
        stmt.body, new_space, Schedule(entries), stmt.name, stmt.phase
    )
    return _replace(comp, index, new_stmt)


def shift(comp: Computation, name: str, var: str, offset: int) -> Stmt:
    """Shift a loop: the new iterator runs ``offset`` later.

    Iteration ``v'`` of the result executes what iteration ``v' - offset``
    executed before, so constraints and body see ``v - offset``.
    """
    index, stmt = _get_stmt(comp, name)
    if var not in stmt.space.tuple_vars:
        raise TransformError(f"{var!r} is not a loop variable of {name!r}")
    shifted = stmt.space.single_conjunction.substitute_vars(
        {var: Var(var) - offset}
    )
    new_space = IntSet(stmt.space.tuple_vars, [shifted])
    # The body must read the original iterator value.
    new_stmt = Stmt(
        stmt.body.substitute_vars({var: Var(var) - offset}), new_space,
        stmt.schedule, stmt.name, stmt.phase,
    )
    return _replace(comp, index, new_stmt)


def skew(comp: Computation, name: str, inner: str, outer: str,
         factor: int) -> Stmt:
    """Skew ``inner`` by ``factor * outer``: new inner = old + factor*outer."""
    index, stmt = _get_stmt(comp, name)
    tuple_vars = stmt.space.tuple_vars
    if inner not in tuple_vars or outer not in tuple_vars:
        raise TransformError("both loops must belong to the statement")
    if tuple_vars.index(outer) >= tuple_vars.index(inner):
        raise TransformError("the skew source must be an outer loop")
    substituted = stmt.space.single_conjunction.substitute_vars(
        {inner: Var(inner) - factor * Var(outer)}
    )
    new_space = IntSet(tuple_vars, [substituted])
    new_stmt = Stmt(
        stmt.body.substitute_vars({inner: Var(inner) - factor * Var(outer)}),
        new_space, stmt.schedule, stmt.name, stmt.phase,
    )
    return _replace(comp, index, new_stmt)


def tile(comp: Computation, name: str, var: str, size: int) -> Stmt:
    """Strip-mine loop ``var`` into ``{var}_t`` (tiles) and ``{var}_i``.

    The original variable survives as a let-bound value
    ``var = size * var_t + var_i``, so the body is untouched; the original
    bound constraints become guards, making partial tiles exact.  Requires
    a constant (literal) lower bound of 0 — the common case for the sparse
    iteration spaces here — and at least one upper bound.
    """
    if size < 2:
        raise TransformError("tile size must be at least 2")
    index, stmt = _get_stmt(comp, name)
    tuple_vars = list(stmt.space.tuple_vars)
    if var not in tuple_vars:
        raise TransformError(f"{var!r} is not a loop variable of {name!r}")
    conj = stmt.space.single_conjunction
    lowers = conj.lower_bounds(var)
    uppers = conj.upper_bounds(var)
    if not any(lo == 0 for lo in lowers):
        raise TransformError(
            f"tiling needs a literal 0 lower bound on {var!r}"
        )
    if not uppers:
        raise TransformError(f"{var!r} has no upper bound to tile against")
    upper = uppers[0]

    vt, vi = f"{var}_t", f"{var}_i"
    if vt in tuple_vars or vi in tuple_vars:
        raise TransformError(f"{vt!r}/{vi!r} already exist")
    position = tuple_vars.index(var)
    new_vars = (
        tuple_vars[:position] + [vt, vi, var] + tuple_vars[position + 1 :]
    )
    constraints = list(conj.constraints)
    constraints.append(greater_equal(Var(vt), 0))
    constraints.append(
        less(Var(vt), FloorDiv(upper, size) + 1)
    )
    constraints.append(greater_equal(Var(vi), 0))
    constraints.append(less(Var(vi), size))
    constraints.append(equals(Var(var), size * Var(vt) + Var(vi)))
    new_space = IntSet(new_vars, [Conjunction(constraints)])
    new_stmt = Stmt(stmt.body, new_space, None, stmt.name, stmt.phase)
    assert stmt.schedule is not None
    new_stmt = new_stmt.with_schedule(
        Schedule.default(stmt.schedule.static_at(0), new_vars)
    )
    return _replace(comp, index, new_stmt)


def full_unroll(comp: Computation, name: str, var: str) -> list[Stmt]:
    """Fully unroll a constant-trip loop into one statement per iteration.

    Requires literal integer lower and upper bounds on ``var``.  Returns
    the replacement statements (scheduled sequentially in place).
    """
    index, stmt = _get_stmt(comp, name)
    conj = stmt.space.single_conjunction
    lowers = [e for e in conj.lower_bounds(var) if e.is_constant()]
    uppers = [e for e in conj.upper_bounds(var) if e.is_constant()]
    if not lowers or not uppers:
        raise TransformError(
            f"full unroll needs literal bounds on {var!r}"
        )
    lo = max(e.const for e in lowers)
    hi = min(e.const for e in uppers)
    if hi - lo + 1 > 1024:
        raise TransformError("refusing to unroll more than 1024 iterations")

    new_vars = tuple(v for v in stmt.space.tuple_vars if v != var)
    replacements: list[Stmt] = []
    for value in range(lo, hi + 1):
        inst_conj = conj.substitute_vars({var: value})
        space = IntSet(new_vars, [inst_conj])
        replacements.append(
            Stmt(stmt.body.substitute_vars({var: value}), space, None,
                 f"{stmt.name}_u{value}", stmt.phase)
        )
    stmts = list(comp.stmts)
    stmts[index : index + 1] = replacements
    # Re-number default schedules to keep global statement ordering.
    comp.replace_stmts(
        [
            s.with_schedule(Schedule.default(order, s.space.tuple_vars))
            for order, s in enumerate(stmts)
        ]
    )
    return replacements
