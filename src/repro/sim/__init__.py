"""Cycle-level GPU simulator substrate.

A simplified GPGPU-Sim-like model: per-SM warp schedulers issue one
instruction per scheduler per cycle from ready warps, subject to a
register scoreboard, memory latency, CTA barriers, and — when a
register-sharing technique is installed — acquire/release arbitration.
CTAs are dispatched onto SMs as register/thread/slot resources allow,
which is where occupancy (and RegMutex's occupancy boost) enters.
"""

from repro.sim.stats import SmStats, KernelStats
from repro.sim.warp import Warp, WarpStatus
from repro.sim.cta import Cta
from repro.sim.scoreboard import Scoreboard
from repro.sim.scheduler import make_scheduler, GtoScheduler, LrrScheduler
from repro.sim.memory import MemoryModel
from repro.sim.regfile import BaselineRegisterMapper, MappedRegister
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.gpu import Gpu, LaunchResult, simulate_kernel
from repro.sim.banks import BankedRegisterFile
from repro.sim.multikernel import launch_concurrent, kernels_similar

__all__ = [
    "SmStats",
    "KernelStats",
    "Warp",
    "WarpStatus",
    "Cta",
    "Scoreboard",
    "make_scheduler",
    "GtoScheduler",
    "LrrScheduler",
    "MemoryModel",
    "BaselineRegisterMapper",
    "MappedRegister",
    "StreamingMultiprocessor",
    "Gpu",
    "LaunchResult",
    "simulate_kernel",
    "BankedRegisterFile",
    "launch_concurrent",
    "kernels_similar",
]
