"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.arch.config import GTX480, GTX480_HALF_RF, fermi_like
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Opcode


@pytest.fixture
def gtx480():
    return GTX480


@pytest.fixture
def gtx480_half():
    return GTX480_HALF_RF


@pytest.fixture
def tiny_config():
    """A small device for fast simulator tests: 1 SM, 8 warp slots."""
    return fermi_like(
        name="tiny",
        num_sms=1,
        max_warps_per_sm=8,
        max_ctas_per_sm=4,
        max_threads_per_sm=256,
        registers_per_sm=4096,
        shared_mem_per_sm=16 * 1024,
        dram_latency=80,
        l1_hit_latency=10,
    )


def straightline_kernel(n_alu: int = 8, regs: int = 4, name: str = "straight"):
    """R0..R{regs-1} defined, a chain of ALU ops, store, exit."""
    b = KernelBuilder(name=name, regs_per_thread=regs, threads_per_cta=64)
    for r in range(regs):
        b.ldc(r)
    for i in range(n_alu):
        b.alu(i % regs, (i + 1) % regs, (i + 2) % regs)
    b.store(0, 1)
    b.exit()
    return b.build()


def looped_kernel(trips: int = 4, body: int = 6, regs: int = 6, name: str = "looped"):
    """A single counted loop with a store afterwards."""
    b = KernelBuilder(name=name, regs_per_thread=regs, threads_per_cta=64)
    for r in range(regs):
        b.ldc(r)
    b.label("head")
    for i in range(body):
        b.alu(2 + (i % (regs - 2)), 0, 1)
    b.setp(1, 1, 0)
    b.branch("head", 1, trip_count=trips)
    b.store(0, 2)
    b.exit()
    return b.build()


def diamond_kernel(name: str = "diamond"):
    """if/else diamond: R2 defined before, used in the then-arm; R3
    defined in the then-arm, used after the join (Figure 3's shapes)."""
    b = KernelBuilder(name=name, regs_per_thread=6, threads_per_cta=64)
    b.ldc(0)
    b.ldc(1)
    b.ldc(2)          # live into the then-arm
    b.setp(1, 0, 1)
    b.branch("else_", 1, taken_probability=0.5)
    b.alu(3, 2, 0)    # then-arm: uses R2, defines R3
    b.jump("join")
    b.label("else_")
    b.alu(4, 0, 1)    # else-arm: unrelated
    b.label("join")
    b.alu(5, 3, 0)    # uses R3 after the join
    b.store(0, 5)
    b.exit()
    return b.build()


@pytest.fixture
def straight_kernel():
    return straightline_kernel()


@pytest.fixture
def loop_kernel():
    return looped_kernel()


@pytest.fixture
def branch_kernel():
    return diamond_kernel()


@pytest.fixture
def generate_calls(monkeypatch):
    """Names of the kernels generated during the test, counted from an
    empty kernel-text memo (``ExperimentRunner.job_key``'s)."""
    import repro.workloads.suite as suite
    from repro.harness.runner import _app_kernel_text

    calls = []
    original = suite.generate_kernel

    def counting(shape):
        calls.append(shape.name)
        return original(shape)

    _app_kernel_text.cache_clear()
    monkeypatch.setattr(suite, "generate_kernel", counting)
    yield calls
    _app_kernel_text.cache_clear()


# The full-scale RunRecord of every figure job (Figs. 7-13), pinned by
# perfbench: 124 records plus the 4 |Es| sweep points that fail to
# compile (BFS |Es|=4, ParticleFilter |Es|=2, SAD |Es|=4/6).
PINNED_FIGURE_JOBS = (
    Path(__file__).resolve().parent.parent
    / "perfbench" / "expected" / "figure_jobs.json"
)


@pytest.fixture(scope="session")
def pinned_store_template(tmp_path_factory) -> Path:
    """A run store holding the pinned figure records under
    ``runner.job_key(job)`` (``install`` + ``flush``), so every figure
    builds from store hits in well under a second."""
    from repro.harness.experiments import FIGURE_SPECS, figure_spec
    from repro.harness.runner import ExperimentRunner, RunRecord

    universe = {job.label: job
                for name in FIGURE_SPECS for job in figure_spec(name).jobs}
    path = tmp_path_factory.mktemp("pinned") / "store.json"
    runner = ExperimentRunner(cache_path=str(path))
    pinned = json.loads(PINNED_FIGURE_JOBS.read_text())["jobs"]
    for label, entry in pinned.items():
        if "record" in entry:
            runner.install(runner.job_key(universe[label]),
                           RunRecord(**entry["record"]))
    runner.flush()
    return path


@pytest.fixture
def pinned_store(pinned_store_template, tmp_path) -> str:
    """This test's own copy of the pinned store (runs append to it)."""
    path = tmp_path / "store.json"
    shutil.copy(pinned_store_template, path)
    return str(path)
