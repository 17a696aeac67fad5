"""Conversion amortization analysis — the introduction's motivating math.

"Changing formats between phases may be advantageous depending on the
number of times the operations are executed" (Section 1).  This module
measures the three quantities that decide it — the conversion time, the
kernel time on the source format, and the kernel time on the destination
format — and reports the breakeven repetition count

    k* = t_convert / (t_kernel_src - t_kernel_dst)

beyond which converting first is the faster plan.  Together with
:mod:`repro.synthesis.tandem` (which *eliminates* the conversion when the
kernel runs once), it closes the loop on the paper's motivating scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import convert
from repro.kernels import run_kernel
from repro.formats import container_format

from .timing import time_fn, time_pair


@dataclass(frozen=True)
class Amortization:
    """Measured costs and the derived breakeven for one conversion."""

    src_format: str
    dst_format: str
    kernel: str
    convert_s: float
    kernel_src_s: float
    kernel_dst_s: float
    breakeven: float  # repetitions; inf when converting never pays off

    def plan(self, repetitions: int) -> str:
        """The cheaper plan for a known repetition count."""
        stay = self.kernel_src_s * repetitions
        move = self.convert_s + self.kernel_dst_s * repetitions
        return "convert" if move < stay else "stay"

    def total_cost(self, repetitions: int, plan: str | None = None) -> float:
        plan = plan or self.plan(repetitions)
        if plan == "convert":
            return self.convert_s + self.kernel_dst_s * repetitions
        return self.kernel_src_s * repetitions


def measure_amortization(
    container,
    dst_format: str,
    kernel: str = "spmv",
    *,
    repeats: int = 3,
    binary_search: bool = False,
    **kernel_inputs,
) -> Amortization:
    """Measure conversion/kernel costs and compute the breakeven count."""
    src_format = container_format(container)
    if kernel in ("spmv", "spmv_t") and "x" not in kernel_inputs:
        width = (
            container.nrows if kernel == "spmv_t" else container.ncols
        )
        kernel_inputs["x"] = [1.0] * width

    # validate="off": the gate's O(nnz) input scans would pollute the
    # conversion timing being amortized.
    convert_s = time_fn(
        lambda: convert(container, dst_format, binary_search=binary_search,
                        validate="off"),
        repeats=repeats,
    )
    converted = convert(container, dst_format, binary_search=binary_search,
                        validate="off")
    # In turns: the breakeven divides by the difference of the two.
    kernel_src_s, kernel_dst_s = time_pair(
        lambda: run_kernel(container, kernel, **kernel_inputs),
        lambda: run_kernel(converted, kernel, **kernel_inputs),
        repeats=repeats,
    )

    gain = kernel_src_s - kernel_dst_s
    breakeven = convert_s / gain if gain > 0 else math.inf
    return Amortization(
        src_format=src_format,
        dst_format=dst_format,
        kernel=kernel,
        convert_s=convert_s,
        kernel_src_s=kernel_src_s,
        kernel_dst_s=kernel_dst_s,
        breakeven=breakeven,
    )


def amortization_report(
    container,
    destinations: tuple[str, ...] = ("CSR", "CSC", "DIA"),
    kernel: str = "spmv",
    *,
    repeats: int = 3,
) -> str:
    """A text report of breakeven counts for several destinations."""
    from .reporting import render_table

    rows = []
    for dst in destinations:
        a = measure_amortization(container, dst, kernel, repeats=repeats)
        rows.append(
            [
                f"{a.src_format}->{a.dst_format}",
                a.convert_s * 1e3,
                a.kernel_src_s * 1e3,
                a.kernel_dst_s * 1e3,
                a.breakeven if math.isfinite(a.breakeven) else "never",
            ]
        )
    return render_table(
        ["conversion", "convert_ms", f"{kernel}@src_ms",
         f"{kernel}@dst_ms", "breakeven_reps"],
        rows,
        title=f"Amortization of format conversion for repeated {kernel}",
    )
