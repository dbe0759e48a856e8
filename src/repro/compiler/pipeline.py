"""End-to-end RegMutex compilation pipeline (paper §III-A).

``regmutex_compile`` chains the four compiler steps — liveness analysis,
|Es| selection, primitive injection, index compaction — and records what
each did in a :class:`CompilationReport` attached to the returned
kernel's metadata (``base_set_size``/``extended_set_size``).

A kernel whose occupancy is not register-limited, or whose heuristic
yields no viable split, is returned unchanged with ``|Es| = 0`` — the
paper's "does not insert any acquire or release instructions" behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import GpuConfig
from repro.compiler.acquire_release import InjectionResult, inject_primitives
from repro.compiler.compaction import compact_register_indices, verify_compact
from repro.compiler.es_selection import EsSelection, select_extended_set_size
from repro.compiler.regions import AcquireRegion, find_acquire_regions
from repro.isa.kernel import Kernel
from repro.liveness.liveness import kernel_liveness


@dataclass(frozen=True)
class CompilationReport:
    """What the pipeline decided and produced, for inspection and tests."""

    selection: EsSelection
    regions: tuple[AcquireRegion, ...]
    acquire_count: int
    release_count: int
    instructions_before: int
    instructions_after: int

    @property
    def instrumented(self) -> bool:
        return self.acquire_count > 0

    @property
    def overhead_instructions(self) -> int:
        return self.instructions_after - self.instructions_before


def compilation_report(kernel: Kernel) -> CompilationReport | None:
    """The report for a kernel produced by :func:`regmutex_compile`.

    The report sits in the output kernel's memo, so it lives exactly as
    long as that kernel object; a copy (``with_metadata``, unpickling)
    has none.
    """
    return kernel._memo.get("report")


def regmutex_compile(
    kernel: Kernel,
    config: GpuConfig,
    forced_es: int | None = None,
    enable_compaction: bool = True,
) -> Kernel:
    """Compile a kernel for RegMutex execution on ``config``.

    Returns a new kernel with acquire/release primitives injected and
    metadata carrying the |Bs|/|Es| split, or the original kernel (plus
    metadata) when RegMutex does not apply.
    """
    if kernel.metadata.uses_regmutex:
        raise ValueError("kernel already compiled for RegMutex")
    info = kernel_liveness(kernel)
    selection = select_extended_set_size(
        kernel, config, liveness=info, forced_es=forced_es
    )

    rounded = selection.rounded_regs

    def finish(result: Kernel, report: CompilationReport) -> Kernel:
        result._memo["report"] = report
        return result

    if not selection.uses_regmutex:
        result = kernel.with_metadata(
            regs_per_thread=rounded,
            base_set_size=rounded,
            extended_set_size=0,
        )
        return finish(
            result,
            CompilationReport(
                selection=selection,
                regions=(),
                acquire_count=0,
                release_count=0,
                instructions_before=len(kernel),
                instructions_after=len(result),
            ),
        )

    bs = selection.base_set_size
    regions = find_acquire_regions(kernel, bs, liveness=info)
    if not regions:
        # Pressure never exceeds |Bs|: nothing to time-share.  Fall back
        # to the uninstrumented kernel (all registers in the base set).
        result = kernel.with_metadata(
            regs_per_thread=rounded,
            base_set_size=rounded,
            extended_set_size=0,
        )
        return finish(
            result,
            CompilationReport(
                selection=selection,
                regions=(),
                acquire_count=0,
                release_count=0,
                instructions_before=len(kernel),
                instructions_after=len(result),
            ),
        )

    injection: InjectionResult = inject_primitives(kernel, regions)
    compiled = injection.kernel
    if enable_compaction:
        compiled = compact_register_indices(compiled, bs)
        verify_compact(compiled, bs)
        # Final gate: no extended-register access reachable without a
        # held section (raises RegMutexSafetyError on a compiler bug).
        from repro.compiler.verification import assert_regmutex_safe

        assert_regmutex_safe(compiled, bs)

    compiled = compiled.with_metadata(
        regs_per_thread=rounded,
        base_set_size=bs,
        extended_set_size=selection.extended_set_size,
    )
    return finish(
        compiled,
        CompilationReport(
            selection=selection,
            regions=injection.regions,
            acquire_count=len(injection.acquire_pcs),
            release_count=len(injection.release_pcs),
            instructions_before=len(kernel),
            instructions_after=len(compiled),
        ),
    )
