"""The simulator runs on the standard library alone.

A fresh interpreter imports the package and its CLI, then runs a small
RegMutex SM on the columnar path with the sanitizer armed and an
observer sampling every cycle — the columnar store's invariant sweep
and probe histogram both run — and checks that no third-party
numerics package was imported along the way.
"""

import os
import subprocess
import sys

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

_SCRIPT = """
import sys

import repro, repro.cli
from repro.arch.config import fermi_like
from repro.isa.builder import KernelBuilder
from repro.observe.hooks import SmObserver
from repro.regmutex.issue_logic import RegMutexTechnique
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats

b = KernelBuilder(name="probe", regs_per_thread=8, threads_per_cta=64)
for r in range(4):
    b.ldc(r)
b.acquire()
b.alu(4, 0, 1)
b.alu(5, 4, 2)
b.mov(3, 5)
b.release()
b.store(0, 3)
b.exit()
kernel = b.build().with_metadata(base_set_size=4, extended_set_size=4)
config = fermi_like(
    name="stdlib-only", num_sms=1, max_warps_per_sm=8, max_ctas_per_sm=4,
    max_threads_per_sm=256, registers_per_sm=4096, dram_latency=60,
    l1_hit_latency=8, issue_engine="columnar", sanitizer=True,
)
stats = SmStats()
sm = StreamingMultiprocessor(
    sm_id=0, config=config, kernel=kernel,
    technique_state=RegMutexTechnique().make_sm_state(kernel, config, stats),
    ctas_resident_limit=2, total_ctas=4, rng=DeterministicRng(1),
    stats=stats,
)
observer = SmObserver(stride=1).attach(sm)
sm.run()
assert sm._sanitizer is not None and not sm._sanitizer.violations
assert len(observer.samples) > 0 and stats.cycles > 0
print("columnar" if sm._columnar is not None else "scan", stats.cycles)
print("numpy" in sys.modules)
"""


def test_run_imports_no_numpy():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    env.pop("REPRO_ISSUE_ENGINE", None)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True, text=True, timeout=300, cwd=REPO, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False", proc.stdout
