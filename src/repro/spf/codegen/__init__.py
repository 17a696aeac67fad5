"""Code generation: the lowered-AST printers of the three tiers."""

from .printers import (
    PythonPrinter,
    SymbolTable,
    emit_python_function,
)

__all__ = [
    "PythonPrinter",
    "SymbolTable",
    "emit_python_function",
]
