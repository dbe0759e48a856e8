"""Correctness tooling: differential execution oracle + dynamic sanitizer.

The timing simulator computes *when* instructions issue, never *what*
they compute — so a register-remapping bug (RegMutex compaction, SRP
section muxing, OWF pair sharing) would be invisible to every cycle
count the repo reports.  This package closes that hole twice over:

* :mod:`repro.check.shadow` — a shadow architectural executor with
  synthetic deterministic value semantics, attached to an SM the same
  way the observability wrapper is;
* :mod:`repro.check.oracle` — runs one workload under baseline /
  RegMutex / paired-warps / OWF / RFV and asserts the shadow states are
  equivalent modulo each technique's documented remapping;
* :mod:`repro.check.sanitizer` — the ``GpuConfig.sanitizer`` runtime
  checker folding the scattered safety checks into one per-issue /
  per-cycle pass with typed, provenance-carrying violations.

The fault campaign (:mod:`repro.faults.campaign`, ``repro faults``)
re-runs its simulator faults with the sanitizer armed and reports which
mechanism catches each one.
"""

from repro.check.oracle import (
    CHECK_CONFIG,
    ORACLE_TECHNIQUES,
    SMOKE_APPS,
    AppCheckResult,
    TechniqueTrace,
    check_apps,
    compare_traces,
    run_technique_trace,
)
from repro.check.sanitizer import Sanitizer, SanitizerViolation
from repro.check.shadow import ShadowState, ShadowTechniqueState, attach_shadow, mix64

__all__ = [
    "CHECK_CONFIG",
    "ORACLE_TECHNIQUES",
    "SMOKE_APPS",
    "AppCheckResult",
    "Sanitizer",
    "SanitizerViolation",
    "ShadowState",
    "ShadowTechniqueState",
    "TechniqueTrace",
    "attach_shadow",
    "check_apps",
    "compare_traces",
    "mix64",
    "run_technique_trace",
]
