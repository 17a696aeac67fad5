"""Code generation: lowered-AST printers for Python and display C."""

from .printers import (
    CPrinter,
    PythonPrinter,
    SymbolTable,
    emit_python_function,
)

__all__ = [
    "CPrinter",
    "PythonPrinter",
    "SymbolTable",
    "emit_python_function",
]
