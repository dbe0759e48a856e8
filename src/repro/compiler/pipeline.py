"""End-to-end RegMutex compilation pipeline (paper §III-A).

``regmutex_compile`` chains the four compiler steps — liveness analysis,
|Es| selection, primitive injection, index compaction — and records what
each did in a :class:`CompilationReport` attached to the returned
kernel's metadata (``base_set_size``/``extended_set_size``).

A kernel whose occupancy is not register-limited, or whose heuristic
yields no viable split, is returned unchanged with ``|Es| = 0`` — the
paper's "does not insert any acquire or release instructions" behaviour.

Everything after |Es| selection depends only on the kernel and |Bs|, so
the instrumented body for each |Bs| is built once per input kernel and
kept in its memo; see :func:`_instrumented_body`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.config import GpuConfig
from repro.compiler.acquire_release import inject_primitives
from repro.compiler.compaction import compact_register_indices, verify_compact
from repro.compiler.es_selection import EsSelection, select_extended_set_size
from repro.compiler.regions import AcquireRegion, find_acquire_regions
from repro.compiler.verification import assert_regmutex_safe
from repro.isa.instructions import Instruction
from repro.isa.kernel import Kernel
from repro.liveness.liveness import LivenessInfo, kernel_liveness


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


@dataclass(frozen=True)
class _Body:
    """What every compile of one kernel at one |Bs| shares.

    ``instructions`` is the injected (and compacted) stream, or None when
    pressure never exceeds |Bs|.  Nothing here refers to a kernel or an
    analysis, so a memoized body costs only the new instructions.
    """

    regions: tuple[AcquireRegion, ...]
    acquire_count: int
    release_count: int
    instructions: tuple[Instruction, ...] | None


_UNINSTRUMENTED = _Body((), 0, 0, None)


def _instrumented_body(
    kernel: Kernel, bs: int, info: LivenessInfo, enable_compaction: bool
) -> _Body:
    """Regions, injection, compaction and both static checks for one |Bs|.

    Every step reads only the kernel's instructions and |Bs|, so the body
    is kept in the input kernel's memo under ``(|Bs|, enable_compaction)``
    and an |Es| sweep builds each one once.  A step that raises stores
    nothing: a failing |Bs| runs, and raises, again on every compile.
    """
    bodies = kernel._memo.setdefault("bodies", {})
    key = (bs, enable_compaction)
    body = bodies.get(key)
    if body is not None:
        return body
    regions = find_acquire_regions(kernel, bs, liveness=info)
    if not regions:
        body = _UNINSTRUMENTED
    else:
        injection = inject_primitives(kernel, regions)
        compiled = injection.kernel
        if enable_compaction:
            compiled = compact_register_indices(compiled, bs)
            verify_compact(compiled, bs)
            # Final gate: no extended-register access reachable without
            # a held section (raises RegMutexSafetyError on a compiler bug).
            assert_regmutex_safe(compiled, bs)
        body = _Body(
            regions=injection.regions,
            acquire_count=len(injection.acquire_pcs),
            release_count=len(injection.release_pcs),
            instructions=compiled.instructions,
        )
    bodies[key] = body
    return body


def regmutex_compile(
    kernel: Kernel,
    config: GpuConfig,
    forced_es: int | None = None,
    enable_compaction: bool = True,
) -> Kernel:
    """Compile a kernel for RegMutex execution on ``config``.

    Returns a new kernel with acquire/release primitives injected and
    metadata carrying the |Bs|/|Es| split, or the original kernel (plus
    metadata) when RegMutex does not apply.  Each call returns its own
    kernel and report; only the instrumented body is shared between
    compiles of one kernel at the same |Bs|.
    """
    if kernel.metadata.uses_regmutex:
        raise ValueError("kernel already compiled for RegMutex")
    info = kernel_liveness(kernel)
    selection = select_extended_set_size(
        kernel, config, liveness=info, forced_es=forced_es
    )
    rounded = selection.rounded_regs
    body = _UNINSTRUMENTED
    if selection.uses_regmutex:
        body = _instrumented_body(
            kernel, selection.base_set_size, info, enable_compaction
        )
    if body.instructions is None:
        # Not register-limited, or pressure never exceeds |Bs|: nothing
        # to time-share, so all registers stay in the base set.
        result = kernel.with_metadata(
            regs_per_thread=rounded,
            base_set_size=rounded,
            extended_set_size=0,
        )
    else:
        result = Kernel(
            body.instructions,
            replace(
                kernel.metadata,
                regs_per_thread=rounded,
                base_set_size=selection.base_set_size,
                extended_set_size=selection.extended_set_size,
            ),
        )
    result._memo["report"] = CompilationReport(
        selection=selection,
        regions=body.regions,
        acquire_count=body.acquire_count,
        release_count=body.release_count,
        instructions_before=len(kernel),
        instructions_after=len(result),
    )
    return result
