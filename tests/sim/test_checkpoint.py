"""State snapshots (``capture_sm``): engine identity and a pinned payload.

``capture_sm`` reads an SM's full mutable state into an engine-neutral
JSON payload: canonical warp state only, never an issue path's private
queues.  A run stopped by its cycle limit (``run(max_cycles=N)`` raises
``CycleLimitExceededError`` at the first cycle boundary past ``N``, or
past the fast-forward that jumped over it) stops at the same boundary
on the scan stepper and on the columnar engine's C loop, so snapshotting both compares the two engines' whole
state mid-run, not only their final stats.  This is the state-level
half of ``test_engine_identity``, and the comparison a bisect between
the engines reads.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.arch.config import fermi_like
from repro.errors import CycleLimitExceededError
from repro.harness.spec import _TECHNIQUES
from repro.sim.checkpoint import capture_sm
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats
from tests.sim.test_engine_identity import (
    _acquire_kernel,
    _random_kernel,
    needs_native,
)

# Issue paths under test: "scan", and "native", the columnar config as it
# runs by default — the C loop where ``repro._native`` is built, the scan
# fallback elsewhere.
ENGINES = ("scan", "native")

# One representative scheduler per technique keeps the matrix affordable.
TECHNIQUE_SCHED = (
    ("baseline", "gto"),
    ("regmutex", "lrr"),
    ("regmutex-paired", "gto"),
    ("owf", "gto"),
    ("rfv", "lrr"),
)

# (kernel, technique, scheduler, SM overrides): the technique matrix,
# the SRP-parking acquire kernel, and random kernels whose stops catch
# sleepers on a saturated load window (108) and barrier-blocked warps
# (111).
IDENTITY_CASES = (
    *((3, t, s, {}) for t, s in TECHNIQUE_SCHED),
    ("acquire", "regmutex", "gto", {}),
    ("acquire", "regmutex-paired", "gto", {}),
    (108, "regmutex", "lrr", {"total": 16, "max_in_flight_loads": 2}),
    (111, "baseline", "gto", {"total": 16, "max_in_flight_loads": 4}),
)

# Stops at 1/12 ... 11/12 of each run.
STOPS = 12


def _make_sm(kernel, technique_kind, engine, sched, seed=7, total=6,
             **config_overrides):
    """A fresh SM exactly as ``Gpu.launch`` would build it, on the issue
    path ``engine`` names (one of ``ENGINES``)."""
    issue_engine = "columnar" if engine == "native" else engine
    config = fermi_like(num_sms=1, issue_engine=issue_engine,
                        scheduler_policy=sched, **config_overrides)
    technique = _TECHNIQUES[technique_kind]()
    try:
        compiled = technique.prepare_kernel(kernel, config)
    except ValueError:
        compiled = kernel  # pre-instrumented acquire kernel
    occ = technique.occupancy(compiled, config)
    stats = SmStats()
    state = technique.make_sm_state(compiled, config, stats)
    return StreamingMultiprocessor(
        sm_id=0, config=config, kernel=compiled, technique_state=state,
        ctas_resident_limit=occ.ctas_per_sm, total_ctas=total,
        rng=DeterministicRng(seed * 1_000_003 + total),
        stats=stats,
    )


def _snapshot_at_stop(sm, max_cycles: int) -> str:
    """Run ``sm`` into its cycle limit; its snapshot as JSON text."""
    with pytest.raises(CycleLimitExceededError):
        sm.run(max_cycles=max_cycles)
    assert sm.cycle > max_cycles
    return json.dumps(capture_sm(sm), sort_keys=True)


class TestSnapshotIdentity:
    @needs_native
    @pytest.mark.parametrize(
        "kernel_id,technique_kind,sched,overrides", IDENTITY_CASES
    )
    def test_engines_snapshot_identically_at_each_stop(
        self, kernel_id, technique_kind, sched, overrides
    ):
        kernel = (
            _acquire_kernel() if kernel_id == "acquire"
            else _random_kernel(kernel_id)
        )

        def make(engine):
            return _make_sm(kernel, technique_kind, engine, sched,
                            **overrides)

        probe = make("scan")
        probe.run()
        for k in range(1, STOPS):
            stop = k * probe.cycle // STOPS
            scan = _snapshot_at_stop(make("scan"), stop)
            native = _snapshot_at_stop(make("native"), stop)
            assert native == scan, (
                f"engines' state differs at the stop after cycle {stop}"
            )


RFV_GOLDEN = Path(__file__).parent / "golden" / "rfv_checkpoint.json"


class TestRfvPayloadGolden:
    """An RFV payload is written byte for byte as pinned: the pool, the
    reserve holder and ``allocated`` in first-issue order (warps 2, 5,
    4 here), whichever engine ran.  The pinned text was captured
    from the dict-backed ``RfvSmState`` the buffer-backed one replaced.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_payload_matches_golden(self, engine):
        from repro.baselines.rfv import RfvSmState
        from tests.sim.test_engine_identity import _config

        issue_engine = "columnar" if engine == "native" else engine
        config = _config(issue_engine=issue_engine, registers_per_sm=256)
        kernel = _random_kernel(0)
        stats = SmStats()
        sm = StreamingMultiprocessor(
            sm_id=0, config=config, kernel=kernel,
            technique_state=RfvSmState(kernel, config, stats),
            ctas_resident_limit=2, total_ctas=5,
            rng=DeterministicRng(7), stats=stats,
        )
        with pytest.raises(CycleLimitExceededError):
            sm.run(max_cycles=699)
        assert sm.cycle == 700
        text = json.dumps(capture_sm(sm), indent=1) + "\n"
        assert text == RFV_GOLDEN.read_text()
