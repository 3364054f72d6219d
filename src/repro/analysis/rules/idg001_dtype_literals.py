"""IDG001 — raw complex dtype literals in kernel code.

The paper's single-precision argument (Section VI-A) is encoded once, in
:mod:`repro.constants`: storage and kernel compute (phasors, recurrence,
stacked products) are ``COMPLEX_DTYPE`` (complex64), and the sums that stay
double (the gridder's cross-channel accumulator, taper and A-term
sandwiches) are ``ACCUM_DTYPE`` (complex128).  Kernel code that spells
``np.complex64`` / ``np.complex128`` directly re-decides that policy locally
and silently diverges when the constants change, so any raw literal in a
kernel module is flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Violation

CODE = "IDG001"
SUMMARY = (
    "raw np.complex64/np.complex128 literal in kernel code; use "
    "repro.constants.COMPLEX_DTYPE / ACCUM_DTYPE"
)


def check(ctx: FileContext) -> Iterator[Violation]:
    if not ctx.is_kernel_module() or ctx.is_dtype_policy_module():
        return
    for node in ast.walk(ctx.tree):
        name = ctx.numpy_attr(node)
        if name in ctx.config.dtype_literals:
            replacement = (
                "ACCUM_DTYPE" if name == "complex128" else "COMPLEX_DTYPE"
            )
            yield ctx.violation(
                node,
                CODE,
                f"raw dtype literal np.{name} in kernel code; use "
                f"repro.constants.{replacement}",
            )
