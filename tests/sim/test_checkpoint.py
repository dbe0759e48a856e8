"""Checkpoint/resume: bit-identity and the typed failure taxonomy.

The checkpoint contract mirrors the issue-engine contract in
``test_wakequeue``: resuming a freshly constructed SM from any
checkpoint emitted by ``run()`` must produce the *bit-identical* tail —
same final cycle and same ``SmStats`` down to each stall counter — as
the uninterrupted run, on every issue path (scan, pure-Python columnar,
and columnar with the native accelerator), for any technique and
scheduler policy.  A columnar checkpoint is the same payload whether the
native accelerator or the pure-Python loop wrote it, so it resumes
identically on either.

Checkpoints here always come from ``run(checkpoint_interval=...,
checkpoint_sink=...)`` — the product path — never from stepping an SM
to a cut cycle.  Per-cycle stepping and ``run()``'s fast-forward
attribute stall cycles differently (documented step-vs-run asymmetry),
so a step-to-cut harness would flag attribution skew that no resumed
run can ever observe.

The taxonomy half pins the acceptance rule "classified, never silently
resumed": wrong schema, wrong engine, wrong kernel/config, and damaged
files each raise their own typed error, and none of them is a
``SimulationError``.
"""

from __future__ import annotations

import dataclasses
import json
from unittest import mock

import pytest

import repro.sim.sm as sm_mod
from repro.arch.config import fermi_like
from repro.errors import (
    CheckpointCorruptError,
    CheckpointEngineMismatchError,
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
from tests.sim.test_wakequeue import (
    NATIVE_BUILT,
    NATIVE_MISSING,
    _acquire_kernel,
    _random_kernel,
)

# Issue paths under test.  "columnar" is the pure-Python columnar loop
# (the native accelerator switched off); "native" is the columnar path as
# it runs by default — the native loop where ``repro._native`` is built,
# the pure fallback elsewhere.  TestCrossPathResume pins the two columnar
# loops against each other.
ENGINES = ("scan", "columnar", "native")

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


def _make_sm(kernel, technique_kind, engine, sched, seed=7, total=6):
    """A fresh SM exactly as ``Gpu.launch`` would build it, on the issue
    path ``engine`` names (one of ``ENGINES``)."""
    if engine == "columnar":
        # The SM picks its columnar loop at construction.
        with mock.patch.object(sm_mod, "_native", None):
            return _make_sm(kernel, technique_kind, "native", sched,
                            seed=seed, total=total)
    issue_engine = "columnar" if engine == "native" else engine
    config = fermi_like(num_sms=1, issue_engine=issue_engine,
                        scheduler_policy=sched)
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


def _checkpointed_run(kernel, technique_kind, engine, sched):
    """Reference outcome plus the checkpoints run() emitted along the way.

    Emission is best-effort periodic (a long fast-forward can skip
    windows), so a short run may yield a single checkpoint; the contract
    is at least one, and that emitting them is invisible to the result.
    """
    probe = _make_sm(kernel, technique_kind, engine, sched)
    probe.run()
    interval = max(5, probe.cycle // 4)

    checkpoints = []
    ref = _make_sm(kernel, technique_kind, engine, sched)
    ref.run(checkpoint_interval=interval, checkpoint_sink=checkpoints.append)
    assert _outcome(ref) == _outcome(probe), (
        "emitting checkpoints perturbed the run"
    )
    assert checkpoints, "run() emitted no checkpoints"
    return _outcome(ref), checkpoints


def _assert_resumes(kernel, technique_kind, engine, sched):
    ref_out, checkpoints = _checkpointed_run(
        kernel, technique_kind, engine, sched
    )
    picks = [checkpoints[0]]
    if len(checkpoints) > 1:
        picks.append(checkpoints[-1])
    for payload in picks:
        # Round-trip through JSON text: proves the payload is pure data,
        # exactly what a checkpoint file on disk would hand back.
        payload = json.loads(json.dumps(payload))
        resumed = _make_sm(kernel, technique_kind, engine, sched)
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
        # Property sweep in the style of test_wakequeue: random kernels,
        # engines and techniques rotated by seed.
        engine = ENGINES[seed % len(ENGINES)]
        technique_kind, sched = TECHNIQUE_SCHED[seed % len(TECHNIQUE_SCHED)]
        _assert_resumes(_random_kernel(100 + seed), technique_kind,
                        engine, sched)


class TestCrossPathResume:
    @pytest.mark.skipif(not NATIVE_BUILT, reason=NATIVE_MISSING)
    @pytest.mark.parametrize("writer", ("native", "pure"))
    @pytest.mark.parametrize("technique_kind,sched", (
        ("baseline", "gto"), ("regmutex", "lrr"),
    ))
    def test_checkpoint_resumes_on_the_other_path(
        self, writer, technique_kind, sched
    ):
        """A checkpoint written by one columnar loop (native or pure)
        resumes bit-identically on the other: both stamp "columnar"
        and read and write the same columns."""
        kernel = _random_kernel(3)
        write_path, read_path = (
            ("columnar", "native") if writer == "pure"
            else ("native", "columnar")
        )
        ref_out, checkpoints = _checkpointed_run(
            kernel, technique_kind, write_path, sched
        )
        payload = json.loads(json.dumps(checkpoints[-1]))
        assert payload["issue_engine"] == "columnar"
        resumed = _make_sm(kernel, technique_kind, read_path, sched)
        assert resumed._use_native == (read_path == "native")
        resumed.restore_checkpoint(payload)
        resumed.run()
        assert _outcome(resumed) == ref_out


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

    def test_engine_mismatch_is_typed_error(self, scan_checkpoint):
        sm = _make_sm(_random_kernel(3), "baseline", "columnar", "gto")
        with pytest.raises(CheckpointEngineMismatchError) as ei:
            sm.restore_checkpoint(json.loads(json.dumps(scan_checkpoint)))
        assert ei.value.kind == "checkpoint-engine-mismatch"

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
            CheckpointError, CheckpointSchemaError,
            CheckpointEngineMismatchError, CheckpointCorruptError,
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
