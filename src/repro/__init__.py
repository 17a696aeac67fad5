"""repro — reproduction of "Code Synthesis for Sparse Tensor Format
Conversion and Optimization" (Popoola et al., CGO 2023).

The package synthesizes sparse-format conversion inspectors from formal
format descriptors expressed in the sparse polyhedral framework:

>>> from repro import convert, COOMatrix
>>> coo = COOMatrix.from_dense([[0.0, 1.0], [2.0, 0.0]])
>>> csr = convert(coo, "CSR")
>>> csr.rowptr, csr.col
(array('q', [0, 1, 2]), array('q', [1, 0]))

Layers (bottom-up): :mod:`repro.ir` (sets/relations with uninterpreted
functions), :mod:`repro.spf` (the SPF-IR and code generation),
:mod:`repro.formats` (Table 1 descriptors), :mod:`repro.synthesis` (the
Section 3.2 algorithm), :mod:`repro.runtime` (containers and the executor),
:mod:`repro.baselines` (TACO/SPARSKIT/MKL/HiCOO-style comparators),
:mod:`repro.datagen` and :mod:`repro.evalharness` (the evaluation).
"""

import time as _time

from .errors import (
    BoundsError,
    DenseMismatchError,
    DuplicateCoordinateError,
    ShapeError,
    StructureError,
    UnsortedInputError,
    ValidationError,
)
from .formats import (
    FormatDescriptor,
    all_formats,
    container_format,
    container_to_env,
    get_format,
    outputs_to_container,
)
from .runtime import (
    BCSRMatrix,
    COOMatrix,
    COOTensor3D,
    CSCMatrix,
    CSRMatrix,
    DIAMatrix,
    ELLMatrix,
    MortonCOOMatrix,
    MortonCOOTensor3D,
    dense_equal,
)
from .synthesis import (
    SynthesisError,
    SynthesizedConversion,
    synthesize,
    synthesize_cached,
)
from .planner import (
    ConversionPlan,
    ConversionPlanner,
    convert_via_plan,
    default_planner,
)

__version__ = "1.0.0"


def get_conversion(
    src_name: str,
    dst_name: str,
    *,
    optimize: bool = True,
    binary_search: bool = False,
    backend: str = "python",
    disabled_passes: tuple[str, ...] = (),
) -> SynthesizedConversion:
    """Synthesize (and cache) the inspector converting between two formats.

    Backed by the synthesis memo and persistent inspector cache
    (:mod:`repro.synthesis.cache`): the first call in a warm environment
    loads generated source from disk instead of synthesizing.
    ``disabled_passes`` removes optimization passes by name (``repro
    passes`` lists them); the cache keys cover the resolved pipeline.
    """
    return synthesize_cached(
        get_format(src_name),
        get_format(dst_name),
        optimize=optimize,
        binary_search=binary_search,
        backend=backend,
        disabled_passes=disabled_passes,
    )


def convert(
    container,
    dst_name: str,
    *,
    optimize: bool = True,
    binary_search: bool = False,
    assume_sorted: bool = True,
    backend: str = "python",
    disabled_passes: tuple[str, ...] = (),
    validate: str = "inputs",
    trace: bool | None = None,
):
    """Convert a runtime container to another format via synthesized code.

    The source descriptor is inferred from the container (sorted COO maps to
    SCOO unless ``assume_sorted=False``), the inspector is synthesized once
    and cached, and the outputs are packed back into the right container.
    ``backend`` selects the lowering (``"python"`` scalar loops or ``"numpy"``
    vectorized); both produce identical outputs.

    ``validate`` gates the conversion (:mod:`repro.verify.gate`):
    ``"inputs"`` (the default) runs the source container's :meth:`check`
    and — under ``assume_sorted=True`` — a cheap monotonicity scan, raising
    :class:`~repro.errors.ValidationError` on malformed input instead of
    emitting a silently corrupt container; ``"full"`` additionally checks
    the output and its dense image; ``"off"`` trusts the caller (benchmark
    mode — an unsorted plain COO then simply binds to the sorting COO
    descriptor as before).

    ``trace`` controls the :mod:`repro.obs` span tree for this call:
    ``None`` follows the process-wide ``REPRO_TRACE`` setting, ``True`` /
    ``False`` force tracing on/off for the calling thread.
    """
    call_start = _time.perf_counter()
    import repro.obs as obs
    from repro.backends import available_backend
    from repro.verify import gate

    # Degrade gracefully: an unavailable tier (no cffi / no C compiler)
    # falls back through numpy to the scalar reference instead of failing.
    backend = available_backend(backend).name
    level = gate.normalize_level(validate)
    with obs.TRACER.forced(trace):
        with obs.span(
            "convert",
            category="convert",
            dst=dst_name,
            backend=backend,
            validate=level,
        ) as root:
            with obs.span("validate.input", category="verify"):
                gate.check_input(
                    container, level=level, assume_sorted=assume_sorted
                )
            src_name = container_format(
                container, assume_sorted=assume_sorted
            )
            root.set(src=src_name)
            conversion = get_conversion(
                src_name,
                dst_name,
                optimize=optimize,
                binary_search=binary_search,
                backend=backend,
                disabled_passes=disabled_passes,
            )
            env = container_to_env(container)
            inputs = {p: env[p] for p in conversion.params}
            start = _time.perf_counter()
            outputs = conversion(**inputs)
            elapsed = _time.perf_counter() - start
            with obs.span("pack_outputs", category="runtime"):
                result = outputs_to_container(
                    dst_name, outputs, conversion.uf_output_map, env
                )
            with obs.span("validate.output", category="verify"):
                gate.check_output(result, container, level=level)
    obs.METRICS.counter(
        "repro_conversions", "completed convert() calls"
    ).inc(src=src_name, dst=dst_name, backend=backend)
    obs.METRICS.histogram(
        "repro_conversion_seconds", "inspector execution time of convert()"
    ).observe(elapsed, backend=backend)
    obs.METRICS.histogram(
        "repro_convert_seconds",
        "end-to-end wall time of convert(): gate, bind, inspector, pack",
    ).observe(_time.perf_counter() - call_start, backend=backend)
    return result


__all__ = [
    "BCSRMatrix",
    "BoundsError",
    "COOMatrix",
    "COOTensor3D",
    "CSCMatrix",
    "CSRMatrix",
    "ConversionPlan",
    "ConversionPlanner",
    "DIAMatrix",
    "DenseMismatchError",
    "DuplicateCoordinateError",
    "ELLMatrix",
    "FormatDescriptor",
    "MortonCOOMatrix",
    "MortonCOOTensor3D",
    "ShapeError",
    "StructureError",
    "SynthesisError",
    "SynthesizedConversion",
    "UnsortedInputError",
    "ValidationError",
    "all_formats",
    "container_format",
    "container_to_env",
    "convert",
    "convert_via_plan",
    "default_planner",
    "dense_equal",
    "get_conversion",
    "get_format",
    "outputs_to_container",
    "synthesize",
]
