"""Checkpoint/resume: bit-identity and the typed failure taxonomy.

The checkpoint contract mirrors the issue-engine contract in
``test_engine_identity``: resuming a freshly constructed SM from any
checkpoint emitted by ``run()`` must produce the *bit-identical* tail —
same final cycle and same ``SmStats`` down to each stall counter — as
the uninterrupted run, on both issue engines (the scan stepper and the
columnar engine's C loop), for any technique and scheduler policy.  The
payload is engine-neutral — canonical warp state only, with the columnar
queues rebuilt on restore — so a checkpoint written on either engine
resumes identically on the other.

Checkpoints here always come from ``run(checkpoint_interval=...,
checkpoint_sink=...)`` — the product path — never from stepping an SM
to a cut cycle.  Per-cycle stepping and ``run()``'s fast-forward
attribute stall cycles differently (documented step-vs-run asymmetry),
so a step-to-cut harness would flag attribution skew that no resumed
run can ever observe.

The taxonomy half pins the acceptance rule "classified, never silently
resumed": wrong schema, wrong kernel/config, and damaged files each
raise their own typed error, and none of them is a
``SimulationError``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.arch.config import fermi_like
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointSchemaError,
    SimulationError,
)
from repro.harness.spec import _TECHNIQUES
from repro.sim.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    checkpoint_path,
    read_checkpoint,
    write_checkpoint,
)
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

# (writer, reader) issue paths for cross-engine resume; they run only
# where the extension is built (elsewhere both are scan).
CROSS_PATHS = (
    pytest.param("scan", "native", marks=needs_native),
    pytest.param("native", "scan", marks=needs_native),
)

# One representative scheduler per technique keeps the matrix affordable;
# an exhaustive sweep (every engine x 2 schedulers x 5 techniques)
# passed and the cross products not pinned here add no new code paths.
TECHNIQUE_SCHED = (
    ("baseline", "gto"),
    ("regmutex", "lrr"),
    ("regmutex-paired", "gto"),
    ("owf", "gto"),
    ("rfv", "lrr"),
)


def _make_sm(kernel, technique_kind, engine, sched, seed=7, total=6,
             **config_overrides):
    """A fresh SM exactly as ``Gpu.launch`` would build it, on the issue
    path ``engine`` names (one of ``ENGINES``)."""
    issue_engine = "columnar" if engine == "native" else engine
    config = fermi_like(num_sms=1, issue_engine=issue_engine,
                        scheduler_policy=sched, **config_overrides)
    factory, prio_hook = _TECHNIQUES[technique_kind]
    technique = factory()
    try:
        compiled = technique.prepare_kernel(kernel, config)
    except ValueError:
        compiled = kernel  # pre-instrumented acquire kernel
    occ = technique.occupancy(compiled, config)
    stats = SmStats()
    state = technique.make_sm_state(compiled, config, stats)
    prio = prio_hook if (prio_hook and sched == "gto") else None
    return StreamingMultiprocessor(
        sm_id=0, config=config, kernel=compiled, technique_state=state,
        ctas_resident_limit=occ.ctas_per_sm, total_ctas=total,
        rng=DeterministicRng(seed * 1_000_003 + total),
        scheduler_priority=prio, stats=stats,
    )


def _outcome(sm):
    return (sm.cycle, dataclasses.asdict(sm.stats))


def _checkpointed_run(kernel, technique_kind, engine, sched, **sm_overrides):
    """Reference outcome plus the checkpoints run() emitted along the way.

    Emission is best-effort periodic (a long fast-forward can skip
    windows), so a short run may yield a single checkpoint; the contract
    is at least one, and that emitting them is invisible to the result.
    """
    probe = _make_sm(kernel, technique_kind, engine, sched, **sm_overrides)
    probe.run()
    interval = max(5, probe.cycle // 4)

    checkpoints = []
    ref = _make_sm(kernel, technique_kind, engine, sched, **sm_overrides)
    ref.run(checkpoint_interval=interval, checkpoint_sink=checkpoints.append)
    assert _outcome(ref) == _outcome(probe), (
        "emitting checkpoints perturbed the run"
    )
    assert checkpoints, "run() emitted no checkpoints"
    return _outcome(ref), checkpoints


def _assert_resumes(kernel, technique_kind, engine, sched, reader=None,
                    **sm_overrides):
    """Resume the first and last checkpoints ``engine`` wrote on the
    ``reader`` path (default: the writer's own) and compare each tail
    with the writer's uninterrupted run."""
    ref_out, checkpoints = _checkpointed_run(
        kernel, technique_kind, engine, sched, **sm_overrides
    )
    picks = [checkpoints[0]]
    if len(checkpoints) > 1:
        picks.append(checkpoints[-1])
    for payload in picks:
        # Round-trip through JSON text: proves the payload is pure data,
        # exactly what a checkpoint file on disk would hand back.
        payload = json.loads(json.dumps(payload))
        # Engine-neutral: nothing in it names or encodes an issue path.
        assert payload["schema"] == CHECKPOINT_SCHEMA_VERSION
        assert not {"issue_engine", "engine_state", "scoreboard"} & set(payload)
        resumed = _make_sm(kernel, technique_kind, reader or engine, sched,
                           **sm_overrides)
        resumed.restore_checkpoint(payload)
        assert resumed.cycle == payload["cycle"]
        resumed.run()
        assert _outcome(resumed) == ref_out, (
            f"resume from cycle {payload['cycle']} diverged"
        )


class TestRoundTrip:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("technique_kind,sched", TECHNIQUE_SCHED)
    def test_resume_is_bit_identical(self, engine, technique_kind, sched):
        _assert_resumes(_random_kernel(3), technique_kind, engine, sched)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "technique_kind", ("regmutex", "regmutex-paired")
    )
    def test_srp_state_survives_resume(self, engine, technique_kind):
        # The acquire kernel parks warps on the SRP mid-run: bitmask,
        # LUT, holder flags, and pair locks all cross the checkpoint.
        _assert_resumes(_acquire_kernel(), technique_kind, engine, "gto")

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_kernels_resume(self, seed):
        # Property sweep in the style of test_engine_identity: random
        # kernels, engines and techniques rotated by seed.
        engine = ENGINES[seed % len(ENGINES)]
        technique_kind, sched = TECHNIQUE_SCHED[seed % len(TECHNIQUE_SCHED)]
        _assert_resumes(_random_kernel(100 + seed), technique_kind,
                        engine, sched)


class TestCrossEngineResume:
    @pytest.mark.parametrize("writer,reader", CROSS_PATHS)
    @pytest.mark.parametrize("technique_kind,sched", TECHNIQUE_SCHED)
    def test_checkpoint_resumes_on_another_engine(
        self, writer, reader, technique_kind, sched
    ):
        _assert_resumes(_random_kernel(3), technique_kind, writer, sched,
                        reader=reader)

    @pytest.mark.parametrize("writer,reader", CROSS_PATHS)
    @pytest.mark.parametrize(
        "technique_kind", ("regmutex", "regmutex-paired")
    )
    def test_srp_state_resumes_on_another_engine(
        self, writer, reader, technique_kind
    ):
        _assert_resumes(_acquire_kernel(), technique_kind, writer, "gto",
                        reader=reader)

    @pytest.mark.parametrize("writer,reader", CROSS_PATHS)
    def test_memory_window_sleepers_resume_on_another_engine(
        self, writer, reader
    ):
        # A two-load window keeps warps asleep on memory at the
        # checkpoints — the sleeper class the technique matrix never
        # reaches.
        _assert_resumes(_random_kernel(108), "regmutex", writer, "lrr",
                        reader=reader, total=16, max_in_flight_loads=2)


def _queue_state(sm):
    """The columnar wake queues in comparable form: ready lists in order,
    sleepers as a multiset, ``far`` without the expired thresholds the
    stepper prunes at read time, class/blocked counts, and each resident
    warp's queue-state code."""
    core = sm._columnar
    cycle = sm.cycle
    units = [
        (
            list(unit.ready),
            sorted(unit.sleepers),
            sorted(t for t in unit.far if t > cycle),
            unit.mem_sleepers, unit.nonmem_sleepers,
            unit.barrier_count, unit.acquire_count,
        )
        for unit in core.units
    ]
    qstate = {wid: core.qstate[slot] for wid, slot in core.wid2slot.items()}
    return units, qstate


# (kernel, technique, scheduler, SM overrides) for the queue-rebuild
# test: the technique matrix, the SRP-parking acquire kernel, and random
# kernels whose checkpoints catch non-empty ready lists (110), sleepers
# on a saturated load window (108) and barrier-blocked warps (111).
REBUILD_CASES = (
    *((3, t, s, {}) for t, s in TECHNIQUE_SCHED),
    ("acquire", "regmutex", "gto", {}),
    ("acquire", "regmutex-paired", "gto", {}),
    (108, "regmutex", "lrr", {"total": 16, "max_in_flight_loads": 2}),
    (110, "baseline", "gto", {}),
    (111, "baseline", "gto", {"total": 16, "max_in_flight_loads": 4}),
)


class TestRebuiltQueues:
    @needs_native
    @pytest.mark.parametrize(
        "kernel_id,technique_kind,sched,overrides", REBUILD_CASES
    )
    def test_restore_rebuilds_the_writers_live_queues(
        self, kernel_id, technique_kind, sched, overrides
    ):
        """Restore derives the ready lists, sleeper heaps, ``far``
        thresholds, blocked counts and queue-state codes from the
        canonical warp state; at every checkpoint they equal what the
        writer held live at the capture cycle."""
        kernel = (
            _acquire_kernel() if kernel_id == "acquire"
            else _random_kernel(kernel_id)
        )

        def make():
            return _make_sm(kernel, technique_kind, "native", sched,
                            **overrides)

        probe = make()
        probe.run()
        writer = make()
        captured = []
        writer.run(
            checkpoint_interval=max(5, probe.cycle // 12),
            checkpoint_sink=lambda payload: captured.append(
                (json.loads(json.dumps(payload)), _queue_state(writer))
            ),
        )
        assert captured, "run() emitted no checkpoints"
        for payload, live in captured:
            restored = make()
            restored.restore_checkpoint(payload)
            restored._columnar.check_hygiene()
            assert _queue_state(restored) == live, (
                f"rebuilt queues differ at cycle {payload['cycle']}"
            )


RFV_GOLDEN = Path(__file__).parent / "golden" / "rfv_checkpoint.json"


class TestRfvPayloadGolden:
    """An RFV payload is written byte for byte as pinned: the pool, the
    reserve holder and ``allocated`` in first-issue order (warps 2, 5,
    4 here), whichever engine wrote it.  The pinned text was captured
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
        payloads = []
        sm.run(checkpoint_interval=700, checkpoint_sink=payloads.append)
        text = json.dumps(payloads[0], indent=1) + "\n"
        assert text == RFV_GOLDEN.read_text()


@pytest.fixture(scope="module")
def scan_checkpoint():
    """One real checkpoint payload (scan engine, baseline, GTO)."""
    _, checkpoints = _checkpointed_run(
        _random_kernel(3), "baseline", "scan", "gto"
    )
    return checkpoints[0]


class TestFailureTaxonomy:
    def test_schema_bump_is_typed_error(self, scan_checkpoint):
        payload = json.loads(json.dumps(scan_checkpoint))
        payload["schema"] = CHECKPOINT_SCHEMA_VERSION + 1
        sm = _make_sm(_random_kernel(3), "baseline", "scan", "gto")
        with pytest.raises(CheckpointSchemaError) as ei:
            sm.restore_checkpoint(payload)
        assert ei.value.kind == "checkpoint-schema"

    def test_kernel_mismatch_refused(self, scan_checkpoint):
        sm = _make_sm(_random_kernel(4), "baseline", "scan", "gto")
        with pytest.raises(CheckpointError, match="kernel fingerprint"):
            sm.restore_checkpoint(json.loads(json.dumps(scan_checkpoint)))

    def test_untagged_payload_is_corrupt(self):
        sm = _make_sm(_random_kernel(3), "baseline", "scan", "gto")
        with pytest.raises(CheckpointCorruptError):
            sm.restore_checkpoint({"cycle": 40})

    def test_checkpoint_errors_are_not_simulation_errors(self):
        # A bad checkpoint says nothing about simulator determinism:
        # the harness must fall back to a fresh run, not quarantine
        # the simulation result.
        for exc_type in (
            CheckpointError, CheckpointSchemaError, CheckpointCorruptError,
        ):
            assert not issubclass(exc_type, SimulationError)


class TestFileFormat:
    def test_write_read_round_trip(self, scan_checkpoint, tmp_path):
        path = checkpoint_path(str(tmp_path), total_ctas=6)
        write_checkpoint(path, scan_checkpoint)
        assert read_checkpoint(path) == json.loads(
            json.dumps(scan_checkpoint)
        )

    def test_missing_file_is_corrupt_error(self, tmp_path):
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            read_checkpoint(str(tmp_path / "absent.ckpt.json"))

    def test_truncated_file_is_corrupt_error(self, scan_checkpoint, tmp_path):
        path = checkpoint_path(str(tmp_path), total_ctas=6)
        write_checkpoint(path, scan_checkpoint)
        from repro.faults.injector import corrupt_checkpoint_file

        corrupt_checkpoint_file(path, "checkpoint-truncate")
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint(path)

    def test_bit_rot_fails_checksum(self, scan_checkpoint, tmp_path):
        path = checkpoint_path(str(tmp_path), total_ctas=6)
        write_checkpoint(path, scan_checkpoint)
        from repro.faults.injector import corrupt_checkpoint_file

        # Bumps the payload's cycle but leaves the checksum stale.
        corrupt_checkpoint_file(path, "checkpoint-corrupt")
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            read_checkpoint(path)
