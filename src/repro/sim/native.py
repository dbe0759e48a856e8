"""Find, check or build ``repro._native``, the columnar engine's C loop.

:func:`load_native` runs once per process, from the first columnar SM
(``repro.sim.sm.native_module``), never at ``import repro``: compile-only
and service paths never pay for it.

A binary is used only when it was built from the ``nativemodule.c``
next to this file.  ``setup.py`` compiles the source's SHA-256 into the
module (``SOURCE_DIGEST``), so the check reads the binary's bytes for
that digest *before* importing it: a process never loads a stale
binary, which it could not unload again after a rebuild.  In a checkout
(``setup.py`` beside ``src/``) a missing or stale binary is rebuilt by
``python setup.py build_ext --inplace --force`` in a child process —
setuptools and the compiler never enter the simulating process — under
a file lock, so concurrent first users build it once.  Everything that
leaves no usable binary (no compiler, no checkout, column encodings or
shared-buffer layouts that drift from the Python modules' constants) is
returned as a cause; the caller warns once and builds its SMs on the
scan stepper instead.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

SOURCE = Path(__file__).resolve().parent / "csrc" / "nativemodule.c"
NATIVE_ABI = 7
# A hung compiler must not hang the simulation forever.
BUILD_TIMEOUT_S = 600

# Constants the C loop hardcodes, by the module each must equal: the
# column encodings and the slot layouts of the buffers it shares.
_CONST_NAMES = {
    "repro.sim.columnar": (
        "ST_READY", "ST_BARRIER", "ST_ACQUIRE", "ST_FINISHED",
        "SL_NONE", "SL_SCOREBOARD", "SL_MEMORY", "SL_TECHNIQUE",
        "QS_OUT", "QS_READY", "QS_SLEEPING", "QS_BARRIER", "QS_ACQUIRE",
        "K_ALU", "K_LOAD", "K_SHARED_LOAD", "K_STORE", "K_EXIT",
        "K_JMP", "K_BRA", "K_BARRIER", "K_ACQUIRE", "K_RELEASE",
        "STOP_DEADLOCK", "STOP_WATCHDOG", "STOP_CYCLE_LIMIT",
        "U_MEM_SLEEPERS", "U_NONMEM_SLEEPERS", "U_BARRIER", "U_ACQUIRE",
    ),
    "repro.sim.memory": (
        "M_IN_FLIGHT_TOTAL", "M_NEXT_RETIRE", "M_LOADS_ISSUED", "M_L1_HITS",
    ),
    "repro.baselines.rfv": (
        "RFV_POOL_FREE", "RFV_RESERVE_HOLDER", "RFV_PEAK_POOL_USE",
        "RFV_POOL_CAPACITY", "RFV_NEXT_ORDER",
    ),
}


def _source_digest() -> str:
    """SHA-256 of the C source: what ``setup.py`` compiles in."""
    return hashlib.sha256(SOURCE.read_bytes()).hexdigest()


def _checkout_root() -> Path | None:
    """The checkout whose ``setup.py`` builds this package, if any."""
    src = SOURCE.parents[3]
    root = src.parent
    if src.name == "src" and (root / "setup.py").is_file():
        return root
    return None


def _binary_state(digest: str | None) -> str | None:
    """None when a usable binary is on the import path, else why not."""
    importlib.invalidate_caches()
    spec = importlib.util.find_spec("repro._native")
    if spec is None or not spec.origin:
        return "repro._native is not built"
    if digest is not None and digest.encode() not in Path(spec.origin).read_bytes():
        return "repro._native was built from a different nativemodule.c"
    return None


@contextmanager
def _build_lock(root: Path):
    """Exclusive across processes sharing ``root`` (a no-op without fcntl)."""
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        yield
        return
    lock_dir = root / "build"
    lock_dir.mkdir(exist_ok=True)
    with open(lock_dir / "repro_native.lock", "a+") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _build(root: Path) -> str:
    """Run setup.py's build in a child; what its failure warning says
    when the build did not succeed, else its last output line."""
    try:
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace", "--force"],
            cwd=root, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"{type(exc).__name__}: {exc}"
    lines = proc.stdout.strip().splitlines()
    tail = lines[-1] if lines else ""
    # A warning prints its source line after it: report the message.
    for line in reversed(lines):
        if "RuntimeWarning: " in line:
            tail = line.split("RuntimeWarning: ", 1)[1].split("; ", 1)[0]
            break
    return f"exit {proc.returncode}: {tail}" if proc.returncode else tail


def load_native():
    """Return ``(module, None)``, or ``(None, cause)`` when the C loop
    cannot run in this process."""
    digest = _source_digest() if SOURCE.is_file() else None
    cause = _binary_state(digest)
    if cause is not None:
        root = _checkout_root() if digest is not None else None
        if root is None:
            return None, f"{cause}, and there is no setup.py to build it"
        output = ""
        try:
            with _build_lock(root):
                if _binary_state(digest) is not None:
                    output = _build(root)
        except OSError as exc:  # a read-only checkout, say
            output = f"{type(exc).__name__}: {exc}"
        if _binary_state(digest) is not None:
            return None, f"{cause}, and building it failed ({output})"
    try:
        from repro import _native
    except ImportError as exc:
        return None, f"repro._native does not import ({exc})"
    if not (
        getattr(_native, "NATIVE_ABI", None) == NATIVE_ABI
        and all(
            getattr(_native, name, None)
            == getattr(importlib.import_module(module), name)
            for module, names in _CONST_NAMES.items() for name in names
        )
    ):
        return None, ("repro._native was built against different column "
                      "encodings")
    if digest is not None and getattr(_native, "SOURCE_DIGEST", None) != digest:
        # Imported before this check ran (a stale binary stays loaded).
        return None, "repro._native in this process is stale"
    return _native, None
