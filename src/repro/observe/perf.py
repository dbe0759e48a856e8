"""Perf artifacts: ``BENCH_<label>.json`` files.

``repro bench`` stamps every orchestrated job with its wall time,
simulated cycles, and cycles/second through the harness telemetry, and
this module serializes the session into a schema-versioned JSON
artifact at the repo root.  ``benchmarks/sad_longrun.py`` writes its
issue-path microbenchmark in the same schema.  Changes are gated on
``perfbench/`` instead (``benchmarks/perf_ab.py``); these files are the
record of one session, not a baseline.

Schema (``PERF_ARTIFACT_VERSION`` 1)::

    {
      "schema": 1,
      "label": "<run label>",
      "workers": N,
      "wall_seconds": float,
      "cache": {"hits": N, "misses": N, "hit_rate": float},
      "totals": {"jobs": N, "failures": N, "sim_seconds": float,
                 "cycles": N, "cached_cycles": N, "cycles_per_sec": float},
      "failure_kinds": {"<kind>": N, ...},
      "figures": {"<fig>": {"<metric>": float, ...}, ...},   # optional
      "jobs": [{"label", "mode", "seconds", "cycles", "cycles_per_sec",
                "failed", "failure_kind", "attempts"}, ...]
    }

``totals.cycles`` counts **computed** (non-cached) jobs only: cache hits
replay a stored record in ~0 time, and ``totals.sim_seconds`` already
excludes them, so folding their cycles into the numerator would inflate
``cycles_per_sec`` on any partially-cached session (and mask real
regressions).  Cached cycles are reported separately as
``totals.cached_cycles``.  ``cached_cycles`` and ``figures`` are
additive schema-1 fields, absent in older artifacts.
"""

from __future__ import annotations

import json
import os
import re

from repro.harness.telemetry import SessionTelemetry

PERF_ARTIFACT_VERSION = 1

_LABEL_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def artifact_filename(label: str) -> str:
    """``BENCH_<label>.json`` with the label sanitized for filesystems."""
    safe = _LABEL_SAFE.sub("-", label).strip("-") or "run"
    return f"BENCH_{safe}.json"


def perf_artifact(
    label: str,
    telemetry: SessionTelemetry,
    figures: dict[str, dict[str, float]] | None = None,
) -> dict:
    """Build the artifact dict from one orchestration session.

    ``figures`` optionally embeds per-figure headline metrics (see
    :mod:`repro.harness.figures`) next to the simulator's speed.
    """
    # Per-job entries are JobTiming.to_dict() verbatim: the perf
    # artifact and the service wire protocol share one serialization.
    jobs = [t.to_dict() for t in telemetry.timings]
    hits, misses = telemetry.cache_hits, telemetry.cache_misses
    total = hits + misses
    sim_seconds = telemetry.sim_seconds
    computed_cycles = telemetry.computed_cycles
    artifact = {
        "schema": PERF_ARTIFACT_VERSION,
        "label": label,
        "workers": telemetry.workers,
        "wall_seconds": round(telemetry.wall_seconds, 6),
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        },
        "totals": {
            "jobs": telemetry.jobs_total,
            "failures": telemetry.failures,
            "sim_seconds": round(sim_seconds, 6),
            # Computed jobs only: cached cycles have no matching time in
            # sim_seconds, so they must not land in the cps numerator.
            "cycles": computed_cycles,
            "cached_cycles": telemetry.cached_cycles,
            "cycles_per_sec": (
                round(computed_cycles / sim_seconds, 1)
                if sim_seconds > 0 and computed_cycles else None
            ),
        },
        "failure_kinds": telemetry.failures_by_kind(),
        "jobs": jobs,
    }
    if figures:
        artifact["figures"] = figures
    return artifact


def write_perf_artifact(
    label: str,
    telemetry: SessionTelemetry,
    directory: str = ".",
    figures: dict[str, dict[str, float]] | None = None,
) -> str:
    """Serialize the session to ``<directory>/BENCH_<label>.json``."""
    path = os.path.join(directory, artifact_filename(label))
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(perf_artifact(label, telemetry, figures=figures), fh,
                  indent=2)
        fh.write("\n")
    os.replace(tmp, path)
    return path
