"""RegMutex reproduction: inter-warp GPU register time-sharing.

A full-system reproduction of *RegMutex: Inter-Warp GPU Register
Time-Sharing* (ISCA 2018) on a simplified Python cycle-level GPU
simulator.  See README.md for a tour and DESIGN.md for the system
inventory.

Public API quick reference::

    from repro import (
        GTX480, simulate_kernel,
        RegMutexTechnique, PairedWarpsTechnique,
        OwfTechnique, RfvTechnique,
        regmutex_compile, analyze_liveness,
        build_app_kernel, get_app, APPLICATIONS,
    )
"""

from repro.analysis.bottleneck import attribute_bottlenecks
from repro.analysis.sweeps import register_file_size_sweep
from repro.arch.config import (
    GTX480,
    GTX480_HALF_RF,
    KEPLER_LIKE,
    PASCAL_LIKE,
    VOLTA_LIKE,
    GpuConfig,
    fermi_like,
)
from repro.arch.occupancy import theoretical_occupancy, OccupancyResult
from repro.compiler.verification import (
    assert_regmutex_safe,
    verify_regmutex_safety,
)
from repro.sim.multikernel import launch_concurrent
from repro.baselines.owf import OwfTechnique
from repro.baselines.rfv import RfvTechnique
from repro.compiler.pipeline import regmutex_compile, compilation_report
from repro.compiler.es_selection import select_extended_set_size
from repro.isa.builder import KernelBuilder
from repro.isa.kernel import Kernel, KernelMetadata
from repro.isa.parser import parse_kernel
from repro.isa.printer import format_kernel
from repro.liveness.liveness import analyze_liveness
from repro.liveness.pressure import dynamic_pressure_trace, static_pressure
from repro.regmutex.issue_logic import RegMutexTechnique
from repro.regmutex.paired import PairedWarpsTechnique
from repro.regmutex.storage import (
    regmutex_storage_bits,
    paired_storage_bits,
    rfv_storage_bits,
)
from repro.sim.gpu import Gpu, simulate_kernel
from repro.sim.technique import BaselineTechnique
from repro.workloads.suite import (
    APPLICATIONS,
    OCCUPANCY_LIMITED_APPS,
    REGISTER_RELAXED_APPS,
    FIGURE1_APPS,
    build_app_kernel,
    get_app,
)

__version__ = "1.0.0"

__all__ = [
    "GTX480",
    "GTX480_HALF_RF",
    "KEPLER_LIKE",
    "PASCAL_LIKE",
    "VOLTA_LIKE",
    "GpuConfig",
    "fermi_like",
    "attribute_bottlenecks",
    "register_file_size_sweep",
    "assert_regmutex_safe",
    "verify_regmutex_safety",
    "launch_concurrent",
    "theoretical_occupancy",
    "OccupancyResult",
    "OwfTechnique",
    "RfvTechnique",
    "regmutex_compile",
    "compilation_report",
    "select_extended_set_size",
    "KernelBuilder",
    "Kernel",
    "KernelMetadata",
    "parse_kernel",
    "format_kernel",
    "analyze_liveness",
    "dynamic_pressure_trace",
    "static_pressure",
    "RegMutexTechnique",
    "PairedWarpsTechnique",
    "regmutex_storage_bits",
    "paired_storage_bits",
    "rfv_storage_bits",
    "Gpu",
    "simulate_kernel",
    "BaselineTechnique",
    "APPLICATIONS",
    "OCCUPANCY_LIMITED_APPS",
    "REGISTER_RELAXED_APPS",
    "FIGURE1_APPS",
    "build_app_kernel",
    "get_app",
    "__version__",
]
