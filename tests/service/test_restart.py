"""Daemon crash-safety: SIGKILL the whole daemon mid-job, restart it on
the same run store, and the resubmitted job must be recomputed from
cycle 0, bit-identical to an uninterrupted run.  A SIGKILL of the
daemon process alone must take its pool workers with it.  Also the
graceful path: SIGTERM exits 0."""

from __future__ import annotations

import os
import time

import pytest

from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.service import ServiceClient, record_from_wire

from tests.service.conftest import (
    kill_daemon,
    make_job,
    start_daemon,
    stop_daemon,
)

pytestmark = pytest.mark.faults


def _children(pid: int) -> dict[int, str]:
    """``{child pid: command line}`` of ``pid``'s children, from ``/proc``."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        # The command name may hold spaces: fields follow its ")".
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found[int(entry)] = cmdline
    return found


def _alive(pid: int) -> bool:
    """Running, not gone and not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestDaemonRestart:
    def test_sigkilled_daemon_recomputes_bit_identically(self, tmp_path):
        job = make_job()

        # The uninterrupted reference, on the daemon's exact simulation
        # parameters (seed 2018, default CTA target) but its own cache.
        ref_runner = ExperimentRunner(
            target_ctas_per_sm=24, seed=2018,
            cache_path=str(tmp_path / "ref-cache.json"),
        )
        ref = Orchestrator(ref_runner, workers=1).run_jobs([job])[job]
        assert isinstance(ref, RunRecord)

        serve_args = ("--seed", "2018")
        daemon, sock = start_daemon(tmp_path, serve_args=serve_args)
        try:
            with ServiceClient(socket_path=sock) as client:
                response = client.submit(jobs=[job], follow=False)
            assert not response.final     # in flight, not a cache answer
        finally:
            # Murder the daemon mid-job — no drain, no flush.
            kill_daemon(daemon)

        daemon2, sock2 = start_daemon(tmp_path, serve_args=serve_args)
        try:
            with ServiceClient(socket_path=sock2, io_timeout=300.0) as client:
                result = client.submit(jobs=[job], follow=True)
            assert result.ok
            final = next(iter(result.final.values()))
            assert final["status"] == "done"
            # Recomputed, not a run-store hit: the dead daemon never
            # finished the job.
            assert final.get("dedup") is None
            assert final["timing"]["mode"] == "pool"
            assert record_from_wire(final["record"]) == ref
        finally:
            # Graceful shutdown: SIGTERM drains and exits 0.
            stop_daemon(daemon2)

    def test_sigkilled_daemon_leaves_no_worker_behind(self, tmp_path):
        daemon, sock = start_daemon(tmp_path, workers=2)
        try:
            with ServiceClient(socket_path=sock) as client:
                client.submit(jobs=[make_job()], follow=False)
            deadline = time.monotonic() + 30.0
            children = _children(daemon.pid)
            while (not any("spawn_main" in c for c in children.values())
                   and time.monotonic() < deadline):
                time.sleep(0.05)
                children = _children(daemon.pid)
            assert any("spawn_main" in c for c in children.values()), (
                f"the daemon never started a pool worker: {children}"
            )
            # The daemon PID only, not its process group.
            daemon.kill()
            daemon.wait()
            deadline = time.monotonic() + 30.0
            while (any(_alive(pid) for pid in children)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            survivors = sorted(pid for pid in children if _alive(pid))
            assert not survivors, (
                f"children {survivors} outlived the SIGKILLed daemon"
            )
        finally:
            kill_daemon(daemon)
