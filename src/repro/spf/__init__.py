"""SPF internal representation: computations, schedules, code generation."""

from .ast_nodes import Comment, ForLoop, Guard, LetEq, Node, Program, walk
from .computation import Computation, LoweringError, Schedule, Stmt
from .dataflow import dataflow_dot, dead_spaces
from .codegen.printers import (
    PythonPrinter,
    SymbolTable,
    emit_python_function,
)

__all__ = [
    "Comment",
    "Computation",
    "dataflow_dot",
    "dead_spaces",
    "ForLoop",
    "Guard",
    "LetEq",
    "LoweringError",
    "Node",
    "Program",
    "PythonPrinter",
    "Schedule",
    "Stmt",
    "SymbolTable",
    "emit_python_function",
    "walk",
]
