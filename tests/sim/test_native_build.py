"""The C loop is found, checked or built on first use (``repro.sim.native``).

Each test copies the package and its ``setup.py`` into a temporary
checkout and runs a fresh interpreter there, so builds, stale binaries
and broken compilers never touch the repository's own extension.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.sim.sm as sm_mod

REPO = Path(__file__).resolve().parents[2]

# Runs one small columnar simulation twice in a fresh process and prints
# what the first columnar SM resolved.
CHILD = """
import json, sys, warnings
import repro.sim.sm as sm
from repro.arch.config import fermi_like
from repro.isa.builder import KernelBuilder
from repro.sim.gpu import simulate_kernel

b = KernelBuilder(name="k", regs_per_thread=4, threads_per_cta=64)
for r in range(4):
    b.ldc(r)
b.alu(0, 1, 2)
b.store(0, 1)
b.exit()
config = fermi_like(name="tiny", num_sms=1, max_warps_per_sm=8,
                    max_ctas_per_sm=4, max_threads_per_sm=256,
                    registers_per_sm=4096, shared_mem_per_sm=16 * 1024,
                    dram_latency=80, l1_hit_latency=10,
                    issue_engine="columnar")
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    loops = [simulate_kernel(b.build(), config).loop for _ in range(2)]
module = sm.native_module()
print(json.dumps({
    "loops": loops,
    "digest": getattr(module, "SOURCE_DIGEST", None),
    "warnings": [str(w.message) for w in caught
                 if issubclass(w.category, RuntimeWarning)],
    "setuptools_loaded": "setuptools" in sys.modules,
}))
"""


def _checkout(tmp_path: Path, with_binary: bool = False) -> Path:
    """A minimal checkout: setup.py, pyproject.toml and src/repro, with
    no extension unless ``with_binary`` copies the repository's."""
    root = tmp_path / "checkout"
    root.mkdir()
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(REPO / name, root / name)
    shutil.copytree(REPO / "src" / "repro", root / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    if with_binary:
        built = Path(sm_mod.native_module().__file__)
        shutil.copy2(built, root / "src" / "repro" / built.name)
    return root


def _source_digest(root: Path) -> str:
    source = root / "src" / "repro" / "sim" / "csrc" / "nativemodule.c"
    return hashlib.sha256(source.read_bytes()).hexdigest()


def _binaries(root: Path) -> list[Path]:
    return sorted((root / "src" / "repro").glob("_native*.so"))


def _spawn(root: Path, **env) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", CHILD], cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src"), **env},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _result(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


needs_native = pytest.mark.skipif(
    sm_mod.native_module() is None,
    reason="repro._native could not be built here (no C compiler)",
)


@needs_native
def test_fresh_binary_is_loaded_not_rebuilt(tmp_path):
    root = _checkout(tmp_path, with_binary=True)
    [binary] = _binaries(root)
    before = binary.stat().st_mtime_ns
    result = _result(_spawn(root))
    assert result["loops"] == ["native", "native"]
    assert result["digest"] == _source_digest(root)
    assert result["warnings"] == []
    assert binary.stat().st_mtime_ns == before
    assert not (root / "build").exists()  # no build, not even its lock


@needs_native
def test_stale_binary_is_rebuilt_never_run(tmp_path):
    """A binary built from another nativemodule.c is rebuilt before any
    run, and the process loads only the rebuilt one."""
    root = _checkout(tmp_path, with_binary=True)
    source = root / "src" / "repro" / "sim" / "csrc" / "nativemodule.c"
    source.write_text(source.read_text() + "/* a later revision */\n")
    [binary] = _binaries(root)
    assert _source_digest(root).encode() not in binary.read_bytes()

    result = _result(_spawn(root))
    assert result["loops"] == ["native", "native"]
    assert result["digest"] == _source_digest(root)
    assert _source_digest(root).encode() in binary.read_bytes()
    assert result["warnings"] == []
    # The build ran in a child: setuptools never entered this process.
    assert result["setuptools_loaded"] is False


def test_no_compiler_runs_scan_with_one_warning(tmp_path):
    """No compiler: columnar configs are built on the scan stepper, with
    one warning naming the failed build."""
    root = _checkout(tmp_path)
    result = _result(_spawn(root, CC="/bin/false"))
    assert result["loops"] == ["scan", "scan"]
    assert result["digest"] is None
    [warning] = result["warnings"]
    assert "repro._native is not built, and building it failed" in warning
    assert "CompileError" in warning  # the build's own reason
    assert "falling back to the scan stepper" in warning
    assert _binaries(root) == []
    assert result["setuptools_loaded"] is False


@needs_native
def test_racing_first_builds_both_load_a_valid_module(tmp_path):
    """Two processes resolving the C loop at once: the file lock lets
    one build while the other waits, and both load the built module."""
    root = _checkout(tmp_path)
    procs = [_spawn(root), _spawn(root)]
    results = [_result(proc) for proc in procs]
    for result in results:
        assert result["loops"] == ["native", "native"]
        assert result["digest"] == _source_digest(root)
        assert result["warnings"] == []
        assert result["setuptools_loaded"] is False
    assert len(_binaries(root)) == 1


def test_no_setup_py_runs_scan_with_one_warning(tmp_path):
    """An installed package (no setup.py beside src/) never builds."""
    root = _checkout(tmp_path)
    (root / "setup.py").unlink()
    result = _result(_spawn(root))
    assert result["loops"] == ["scan", "scan"]
    [warning] = result["warnings"]
    assert "there is no setup.py to build it" in warning
    assert not (root / "build").exists()
