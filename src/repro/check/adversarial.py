"""The PR-2 fault campaign as an adversarial test bed for the checkers.

``repro check --faults`` re-runs every campaign scenario with
``GpuConfig.sanitizer`` armed and reports **which mechanism** catches
each injected fault:

* ``sanitizer`` — a typed :class:`SanitizerViolation` with
  warp/pc/cycle provenance (the SRP corruptions are caught here, at the
  first inconsistent cycle);
* ``watchdog`` / ``deadlock-check`` — schedule-level faults whose
  structures stay self-consistent (an unbalanced acquire held across a
  barrier *is* a legal-looking state; only the lack of progress betrays
  it);
* the harness and cache scenarios reuse the campaign's own detectors
  (retry, failure taxonomy, job timeout, checksum quarantine) — the
  sanitizer has no process or file-format jurisdiction.

The simulator scenarios are the campaign's own
(:func:`repro.faults.campaign._sim_scenarios` with ``sanitizer=True``),
run on its contract-clean probe kernel and classified by its one
detector classifier.

A fault that completes undetected, or dies as an untyped error, counts
as escaped; the CI gate requires 10/10 caught-and-classified.
"""

from __future__ import annotations

import shutil
import tempfile

from repro.faults.campaign import (
    FaultOutcome,
    _cache_scenarios,
    _harness_scenarios,
    _sim_scenarios,
)


def run_adversarial_campaign(
    seed: int = 2018,
    include_harness: bool = True,
    workers: int = 2,
) -> list[FaultOutcome]:
    """All campaign scenarios, sanitizer armed where it has jurisdiction."""
    outcomes = _sim_scenarios(seed, sanitizer=True)
    workdir = tempfile.mkdtemp(prefix="regmutex-check-faults-")
    try:
        outcomes.extend(_cache_scenarios(seed, workdir))
        if include_harness:
            outcomes.extend(_harness_scenarios(seed, workers, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcomes
