"""Dataflow graph export for SPF computations.

The SPF-IR can "generate C code or a visual data flow graph to help
performance engineers identify optimization opportunities" (Section 2.2).
This module renders a :class:`~repro.spf.Computation` as Graphviz DOT:
statement nodes (boxes, annotated with their iteration space) connected
through data-space nodes (ellipses) by read/write edges, each statement's
:attr:`~repro.spf.Stmt.reads` and :attr:`~repro.spf.Stmt.writes` as its
body and iteration space imply them.  The same backward walk that drives
dead code elimination is visible in the graph — dead branches are the
ones with no path to a live-out node.
"""

from __future__ import annotations

from typing import Iterable

from .computation import Computation


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def dataflow_dot(
    comp: Computation,
    live_out: Iterable[str] = (),
    *,
    max_label: int = 60,
) -> str:
    """Render the computation's dataflow graph as DOT source."""
    live = set(live_out)
    lines = [
        f'digraph "{_escape(comp.name)}" {{',
        "  rankdir=TB;",
        '  node [fontname="monospace"];',
    ]

    spaces: set[str] = set()
    for stmt in comp.stmts:
        spaces.update(stmt.reads)
        spaces.update(stmt.writes)
    spaces.update(live)

    for stmt in comp.stmts:
        text = stmt.text.splitlines()[0]
        if len(text) > max_label:
            text = text[: max_label - 3] + "..."
        domain = str(stmt.space)
        if len(domain) > max_label:
            domain = domain[: max_label - 3] + "..."
        label = f"{stmt.name}\\n{_escape(text)}\\n{_escape(domain)}"
        lines.append(
            f'  "{stmt.name}" [shape=box, label="{label}"];'
        )

    for space in sorted(spaces):
        style = ", style=filled, fillcolor=lightgray" if space in live else ""
        lines.append(
            f'  "ds_{_escape(space)}" [shape=ellipse, '
            f'label="{_escape(space)}"{style}];'
        )

    for stmt in comp.stmts:
        for name in stmt.reads:
            lines.append(f'  "ds_{_escape(name)}" -> "{stmt.name}";')
        for name in stmt.writes:
            lines.append(f'  "{stmt.name}" -> "ds_{_escape(name)}";')

    lines.append("}")
    return "\n".join(lines)
