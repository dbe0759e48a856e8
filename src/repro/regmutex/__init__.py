"""RegMutex microarchitecture: the paper's primary contribution.

Hardware-side structures (§III-B): the Shared Register Pool bitmask with
Find-First-Zero allocation, the warp-status bitmask, the warp→section
lookup table, the issue-stage acquire/release logic, and the augmented
architected-to-physical mapping mux.  Plus the paired-warps
specialization (§III-C) and the storage-overhead accounting used for the
"384 bits vs >31 kilobits" comparison.
"""

from repro.regmutex.srp import Bitmask, SharedRegisterPool
from repro.regmutex.issue_logic import RegMutexSmState, RegMutexTechnique
from repro.regmutex.paired import PairedWarpsSmState, PairedWarpsTechnique
from repro.regmutex.storage import (
    StorageBudget,
    regmutex_storage_bits,
    paired_storage_bits,
    rfv_storage_bits,
)

__all__ = [
    "Bitmask",
    "SharedRegisterPool",
    "RegMutexSmState",
    "RegMutexTechnique",
    "PairedWarpsSmState",
    "PairedWarpsTechnique",
    "StorageBudget",
    "regmutex_storage_bits",
    "paired_storage_bits",
    "rfv_storage_bits",
]
