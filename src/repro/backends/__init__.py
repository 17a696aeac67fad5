"""repro.backends — pluggable lowering backends behind one registry.

Every place that used to compare ``backend == "numpy"`` resolves a
:class:`Backend` object here instead.  A backend carries capability
declarations (supported ranks, vectorization strategies) plus the hooks
that actually differ between lowerings: source generation, the execution
namespace, result materialization, benchmark input staging, and the
planner's cost model.

The scalar-Python, NumPy and compiled-C backends are the three built-in
instances; :func:`register_backend` accepts new ones, which immediately
become valid values for every ``backend=`` keyword and ``--backend`` CLI
flag.  Registration does not imply availability: the C tier registers
unconditionally and :meth:`Backend.require` raises
:class:`BackendUnavailableError` when cffi or a compiler is missing.
"""

from .base import Backend, BackendCapabilities, Lowering
from .c_backend import CBackend
from .numpy_backend import NumpyBackend
from .registry import (
    BackendUnavailableError,
    all_backends,
    available_backend,
    backend_names,
    get_backend,
    register_backend,
    unregister_backend,
)
from .scalar import PythonBackend

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendUnavailableError",
    "CBackend",
    "DEFAULT_BACKEND",
    "Lowering",
    "NumpyBackend",
    "PythonBackend",
    "all_backends",
    "available_backend",
    "backend_names",
    "get_backend",
    "register_backend",
    "unregister_backend",
]

#: The tier every ``backend=`` keyword and ``--backend`` flag defaults to:
#: the scalar reference.
DEFAULT_BACKEND = "python"

#: The built-in lowerings; registration order fixes "python" as the
#: default and reference backend.
PYTHON_BACKEND = register_backend(PythonBackend())
NUMPY_BACKEND = register_backend(NumpyBackend())
C_BACKEND = register_backend(CBackend())
