"""Shared fixtures for the service-daemon tests.

Two ways to get a daemon:

* in-process — ``SimulationService`` inside ``asyncio.run`` (fast; the
  dedup/timeout/backpressure unit tests).  Blocking ``ServiceClient``
  calls from these tests MUST go through ``asyncio.to_thread`` — the
  daemon shares the test's event loop, so a blocking socket read on
  the loop thread deadlocks both sides.
* subprocess — ``python -m repro serve`` via :func:`start_daemon`
  (the SIGKILL-restart and CLI round-trip tests, where the daemon must
  be killable independently of the test process).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time

from repro.arch.config import fermi_like
from repro.harness.spec import JobSpec, TechniqueSpec

# Same shape as the orchestrator tests: small enough that Gaussian
# simulates in about a second, big enough for multi-SM + memory system.
SVC_CFG = fermi_like(
    name="svc-test",
    num_sms=2,
    max_warps_per_sm=16,
    max_ctas_per_sm=4,
    max_threads_per_sm=512,
    registers_per_sm=8192,
    dram_latency=60,
    l1_hit_latency=8,
)

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def make_job(app: str = "Gaussian", technique: TechniqueSpec | None = None,
             config=SVC_CFG) -> JobSpec:
    return JobSpec(app=app, config=config,
                   technique=technique or TechniqueSpec("baseline"))


def sleeper_job(delay_seconds: float = 1.0) -> JobSpec:
    """A job whose worker sleeps before simulating — occupies a pool
    slot deterministically without burning CPU."""
    return make_job(technique=TechniqueSpec.of(
        "faulty-worker", mode="worker-sleep", delay_seconds=delay_seconds
    ))


def start_daemon(tmp_path, *, workers: int = 1, serve_args: tuple = (),
                 socket_name: str = "d.sock") -> tuple:
    """Launch ``python -m repro serve`` as a subprocess.

    Returns ``(proc, socket_path)`` once the daemon is accepting
    connections.  The caller owns shutdown (SIGTERM for the graceful
    path, SIGKILL for the crash tests).
    """
    sock_path = str(tmp_path / socket_name)
    cache_path = str(tmp_path / "cache.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro",
            "--cache", cache_path, "--workers", str(workers),
            "serve", "--socket", sock_path, *serve_args,
        ],
        cwd=str(tmp_path),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        # Own process group, so the crash tests can SIGKILL the daemon
        # *and* its pool workers as one unit (see kill_daemon).
        start_new_session=True,
    )
    wait_for_socket(proc, sock_path)
    return proc, sock_path


def wait_for_socket(proc, sock_path: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            out = proc.stdout.read().decode(errors="replace")
            raise AssertionError(
                f"daemon exited early ({proc.returncode}):\n{out}"
            )
        try:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(1.0)
            probe.connect(sock_path)
            probe.close()
            return
        except OSError:
            time.sleep(0.05)
    raise AssertionError(f"daemon never listened on {sock_path}")


def kill_daemon(proc) -> None:
    """SIGKILL the daemon's whole process group — daemon AND pool
    workers at the same instant, like a machine crash.

    (A SIGKILL of the daemon PID alone ends its workers too: each pool
    worker exits when its parent dies, which
    ``test_restart.py::test_sigkilled_daemon_leaves_no_worker_behind``
    checks.)"""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def stop_daemon(proc, expect_clean: bool = True, timeout: float = 30.0) -> int:
    """SIGTERM the daemon (graceful drain) and reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise AssertionError("daemon ignored SIGTERM")
    finally:
        if proc.stdout is not None:
            proc.stdout.close()
    if expect_clean:
        assert proc.returncode == 0, f"SIGTERM exit was {proc.returncode}"
    return proc.returncode
