"""Device configurations.

The paper evaluates on GPGPU-Sim's GeForce GTX480 (Fermi) model: 15 SMs,
128 KB register file per SM (32K 32-bit registers), 2 warp schedulers,
greedy-then-oldest scheduling, up to 48 resident warps per SM.  The
"half register file" configuration of §IV-B halves per-SM registers to
64 KB (16K registers).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

#: Canonical issue-engine names: "scan" is the auditable all-warp
#: reference stepper, "columnar" the fast path.  Benchmark and CLI
#: tooling discover engines here rather than hardcoding their own list.
ISSUE_ENGINES = ("scan", "columnar")


def _default_issue_engine() -> str:
    """Default issue engine, overridable via ``REPRO_ISSUE_ENGINE``.

    The env hook exists so the whole tier-1 suite can run under the
    reference stepper (``REPRO_ISSUE_ENGINE=scan python -m pytest``)
    without touching every test's config literal.  The knob is
    timing-neutral by contract (both engines are bit-identical) and is
    excluded from experiment cache keys either way.
    """
    return os.environ.get("REPRO_ISSUE_ENGINE", "columnar")


@dataclass(frozen=True)
class GpuConfig:
    """Static parameters of the simulated device."""

    name: str = "GTX480"
    num_sms: int = 15
    warp_size: int = 32
    max_warps_per_sm: int = 48
    max_ctas_per_sm: int = 8
    max_threads_per_sm: int = 1536
    registers_per_sm: int = 32 * 1024       # 32-bit registers
    shared_mem_per_sm: int = 48 * 1024      # bytes
    register_allocation_granularity: int = 4  # regs/thread rounding
    num_schedulers: int = 2
    scheduler_policy: str = "gto"           # "gto" | "lrr"
    # Memory model knobs (latency in cycles, patterned on Fermi GPGPU-Sim).
    dram_latency: int = 400
    l1_hit_latency: int = 28
    l1_hit_rate: float = 0.35
    max_in_flight_loads: int = 96  # MSHR-style cap on outstanding loads
    # Operand-collector / issue model.
    issue_width_per_scheduler: int = 1
    # Deadlock watchdog: raise SimulationDeadlockError (with a state
    # snapshot) when no warp advances its pc for this many cycles.  Set
    # far above any legitimate stall (the longest is one DRAM round
    # trip) but far below the 50M-cycle hard limit, so a livelocked
    # schedule is diagnosed in seconds, not minutes.  0 disables.
    watchdog_window: int = 20_000
    # Dynamic sanitizer (repro.check.sanitizer), the one switch for
    # runtime checks: extended-access permission (the dynamic twin of
    # repro.compiler.verification's static proof), physical bounds and
    # aliasing, scoreboard hazard re-check per issued instruction; SRP
    # structural consistency, wait-queue and slot hygiene per cycle.
    # Violations raise SanitizerError with warp/pc/cycle provenance.
    sanitizer: bool = False
    # Issue-path implementation.  "columnar" (the default) drives each
    # scheduler from wake-ordered ready lists and sleeper heaps over
    # the array-backed store (repro.sim.columnar) in the C loop of
    # repro._native, which the first columnar SM of a process builds on
    # demand in a checkout (repro.sim.native).  Where it cannot be
    # built, a columnar config runs the scan stepper, with one
    # RuntimeWarning per process.
    # "scan" selects the naive all-warp reference stepper.  Both are
    # bit-identical (cycles, SmStats, oracle digests): the knob exists
    # for the differential identity tests and for auditing, and is
    # excluded from experiment cache keys for that reason.  Defaults to
    # "columnar" unless REPRO_ISSUE_ENGINE says otherwise.
    issue_engine: str = field(default_factory=_default_issue_engine)
    # Cadence of the sanitizer's per-cycle *structural* checks (SRP
    # consistency, wait-queue hygiene, slot accounting): 1 = every cycle
    # (the default; what the fault campaign relies on for tight
    # detection latency).  The oracle's long differential runs raise it
    # — per-issue checks still run on every instruction, so only the
    # detection latency of purely structural corruption changes.
    sanitizer_stride: int = 1

    def __post_init__(self) -> None:
        if self.warp_size <= 0 or self.num_sms <= 0:
            raise ValueError("warp_size and num_sms must be positive")
        if self.max_warps_per_sm <= 0:
            raise ValueError("max_warps_per_sm must be positive")
        if self.registers_per_sm <= 0:
            raise ValueError("registers_per_sm must be positive")
        if self.scheduler_policy not in ("gto", "lrr"):
            raise ValueError(f"unknown scheduler policy {self.scheduler_policy!r}")
        if not 0.0 <= self.l1_hit_rate <= 1.0:
            raise ValueError("l1_hit_rate must lie in [0, 1]")
        if self.watchdog_window < 0:
            raise ValueError("watchdog_window must be >= 0 (0 disables)")
        if self.sanitizer_stride <= 0:
            raise ValueError("sanitizer_stride must be positive")
        if self.issue_engine not in ISSUE_ENGINES:
            raise ValueError(f"unknown issue engine {self.issue_engine!r}")

    @property
    def warp_register_packs(self) -> int:
        """Number of warp-granular register packs in the file.

        The paper's §III-B2: 32K registers / 32 threads = 1K per-thread
        register packs available to distribute among warps.
        """
        return self.registers_per_sm // self.warp_size

    def with_half_register_file(self) -> "GpuConfig":
        """The §IV-B variant: same SM, half the registers."""
        return replace(
            self,
            name=f"{self.name}-halfRF",
            registers_per_sm=self.registers_per_sm // 2,
        )

    def with_scheduler(self, policy: str) -> "GpuConfig":
        """Copy with a different warp-scheduler policy ("gto"/"lrr")."""
        return replace(self, scheduler_policy=policy)


GTX480 = GpuConfig()
GTX480_HALF_RF = GTX480.with_half_register_file()


def fermi_like(**overrides) -> GpuConfig:
    """A GTX480 variant with selected fields overridden."""
    return replace(GTX480, **overrides)


# Post-Fermi presets for the paper's §IV generalization argument: newer
# parts double the per-SM register file but also raise the resident-warp
# and thread ceilings, so the per-thread register budget stays near 32 —
# "in all post-Fermi Nvidia GPUs having more than 32 registers per
# thread definitely results in incomplete occupancy".
KEPLER_LIKE = GpuConfig(
    name="Kepler-like",
    num_sms=8,
    max_warps_per_sm=64,
    max_ctas_per_sm=16,
    max_threads_per_sm=2048,
    registers_per_sm=64 * 1024,
    shared_mem_per_sm=48 * 1024,
    num_schedulers=4,
)

PASCAL_LIKE = GpuConfig(
    name="Pascal-like",
    num_sms=28,
    max_warps_per_sm=64,
    max_ctas_per_sm=32,
    max_threads_per_sm=2048,
    registers_per_sm=64 * 1024,
    shared_mem_per_sm=64 * 1024,
    num_schedulers=4,
)

VOLTA_LIKE = GpuConfig(
    name="Volta-like",
    num_sms=80,
    max_warps_per_sm=64,
    max_ctas_per_sm=32,
    max_threads_per_sm=2048,
    registers_per_sm=64 * 1024,
    shared_mem_per_sm=96 * 1024,
    num_schedulers=4,
)
