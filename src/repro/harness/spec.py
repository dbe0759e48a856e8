"""Declarative experiment specs.

An experiment used to be an imperative driver: a function that called
:meth:`ExperimentRunner.run` in a loop and assembled rows.  That shape
hides the experiment's *job set* — which (app, config, technique)
combinations it needs — so nothing above it can deduplicate work across
experiments or run independent jobs in parallel.

This module makes the job set first-class:

* :class:`TechniqueSpec` — a picklable, hashable description of a
  sharing technique (registry kind + constructor parameters), so a job
  can cross a process boundary without shipping live objects.
* :class:`JobSpec` — one (app, config, technique) simulation, the unit
  of deduplication, caching, and parallel dispatch.
* :class:`ExperimentSpec` — an ordered tuple of jobs plus a row builder
  that turns the finished :class:`JobResults` into the figure's rows.

:class:`repro.harness.orchestrator.Orchestrator` is the one way to
execute specs: it deduplicates jobs across them, answers what it can
from the run store, and runs the rest in-process (``workers=1``) or on
worker processes.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from repro.arch.config import GpuConfig
from repro.baselines.owf import OwfTechnique
from repro.baselines.rfv import RfvTechnique
from repro.errors import FAILURE_JOB_ERROR, FAILURE_RUNTIME, SimulationError
from repro.faults.injector import FaultyWorkerTechnique, KillMidRunTechnique
from repro.regmutex.issue_logic import RegMutexTechnique
from repro.regmutex.paired import PairedWarpsTechnique
from repro.sim.technique import BaselineTechnique, SharingTechnique
from repro.workloads.suite import build_app_kernel, get_app

# kind -> factory, called with the spec's params.
# "faulty-worker" is baseline behaviour plus an injected harness fault
# (crash / deterministic error / hang) — the fault campaign's probe for
# the orchestrator's retry, attribution, and timeout machinery.
# "kill-mid-run" is baseline behaviour until a deterministic cycle,
# then SIGKILLs its worker — the crash-recovery campaign's probe.
_TECHNIQUES: dict[str, type] = {
    "baseline": BaselineTechnique,
    "regmutex": RegMutexTechnique,
    "regmutex-paired": PairedWarpsTechnique,
    "owf": OwfTechnique,
    "rfv": RfvTechnique,
    "faulty-worker": FaultyWorkerTechnique,
    "kill-mid-run": KillMidRunTechnique,
}


@dataclass(frozen=True)
class TechniqueSpec:
    """Declarative technique: registry kind + sorted constructor params."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _TECHNIQUES:
            known = ", ".join(sorted(_TECHNIQUES))
            raise KeyError(f"unknown technique {self.kind!r} (known: {known})")

    @staticmethod
    def of(kind: str, **params: object) -> "TechniqueSpec":
        return TechniqueSpec(kind, tuple(sorted(params.items())))

    def build(self) -> SharingTechnique:
        return _TECHNIQUES[self.kind](**dict(self.params))

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})"


def technique_kinds() -> tuple[str, ...]:
    """Registered technique kinds (the CLI's choices)."""
    return tuple(sorted(_TECHNIQUES))


# The technique lanes ``repro run``/``repro profile`` and the
# differential oracle offer: registry kinds under short names, where
# the paired-warps variant is ``paired``.
TECHNIQUE_LANES: tuple[str, ...] = (
    "baseline", "regmutex", "paired", "owf", "rfv",
)
_LANE_KINDS = {"paired": "regmutex-paired"}


def lane_technique(name: str, es: int | None = None) -> SharingTechnique:
    """The technique of a technique lane, built through
    :class:`TechniqueSpec`.  ``es`` forces |Es| on the RegMutex
    lanes; None leaves it to the compiler heuristic."""
    if name not in TECHNIQUE_LANES:
        raise ValueError(f"unknown technique lane {name!r}")
    kind = _LANE_KINDS.get(name, name)
    params = {"extended_set_size": es} if kind.startswith("regmutex") else {}
    spec = TechniqueSpec.of(kind, **params)
    return spec.build()


@dataclass(frozen=True)
class JobSpec:
    """One (app, config, technique) simulation.

    ``app`` names a workload from :mod:`repro.workloads.suite`; keeping
    it a name (rather than a built kernel) is what makes the job cheap
    to hash, compare, and pickle to a worker process.
    """

    app: str
    config: GpuConfig
    technique: TechniqueSpec

    @property
    def label(self) -> str:
        return f"{self.app}/{self.config.name}/{self.technique}"


@dataclass(frozen=True)
class JobFailure:
    """A job that raised instead of producing a record.

    ``kind`` classifies the failure (the :mod:`repro.errors` taxonomy:
    ``deadlock``, ``cycle-limit``, ``invariant-violation``,
    ``placement``, ``runtime-error``, ``worker-crash``, ``timeout``);
    ``attempts`` counts how many times the job was dispatched before
    the orchestrator gave up (>1 only for transient worker crashes).
    """

    message: str
    kind: str = "error"
    attempts: int = 1


def classify_failure(exc: Exception) -> tuple[str, str]:
    """``(kind, message)`` for an exception a job raised.

    The one failure classification every execution path applies: a
    :class:`SimulationError` keeps its taxonomy kind, a bare
    ``RuntimeError`` is ``runtime-error``, and anything else (the
    compiler's ``CompactionError`` for an uncompactable |Es|, say) is
    ``job-error`` with the exception class and where it was raised, so
    the failure reads on its own.
    """
    if isinstance(exc, SimulationError):
        return exc.kind, str(exc)
    if isinstance(exc, RuntimeError):
        return FAILURE_RUNTIME, str(exc)
    message = f"{type(exc).__name__}: {exc}"
    frames = traceback.extract_tb(exc.__traceback__)
    if frames:
        origin = frames[-1]
        message += (
            f" (raised at {os.path.basename(origin.filename)}:"
            f"{origin.lineno} in {origin.name})"
        )
    return FAILURE_JOB_ERROR, message


def ordered_unique_jobs(jobs: Iterable[JobSpec]) -> tuple[JobSpec, ...]:
    """Deduplicate a job stream, keeping first-declared order.

    The batch-level dedup both the orchestrator and the service daemon
    apply before touching the run store: a figure suite (or a client
    submission spanning several figures) re-requests many jobs, and the
    union is computed once, in the order jobs first appeared.
    """
    seen: dict[JobSpec, None] = {}
    for job in jobs:
        seen.setdefault(job)
    return tuple(seen)


def materialize_job(job: JobSpec):
    """Build the live ``(kernel, technique, None)`` triple.

    The third item is always None.  It used to carry OWF's
    owner-warp-first scheduling, which the technique's per-SM state now
    declares itself; the triple shape stays for callers that still
    unpack three items.
    """
    kernel = build_app_kernel(get_app(job.app))
    return kernel, job.technique.build(), None


def execute_job(job: JobSpec, runner) -> "RunRecord":
    """Run one job through a runner (memoized, in-process)."""
    kernel, technique, _ = materialize_job(job)
    return runner.run(kernel, job.config, technique)


class JobResults:
    """Finished outcomes, indexed by :class:`JobSpec`.

    Indexing a failed job re-raises its error as a ``RuntimeError`` so
    row builders that never expect failures keep the old driver
    semantics; failure-tolerant builders (the register-file sweep) check
    :meth:`failed` first.
    """

    def __init__(self, outcomes: Mapping[JobSpec, object]) -> None:
        self._outcomes = dict(outcomes)

    def __getitem__(self, job: JobSpec):
        outcome = self._outcomes[job]
        if isinstance(outcome, JobFailure):
            raise RuntimeError(outcome.message)
        return outcome

    def __len__(self) -> int:
        return len(self._outcomes)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self._outcomes)

    def __contains__(self, job: JobSpec) -> bool:
        return job in self._outcomes

    def failed(self, job: JobSpec) -> bool:
        return self.failure_kind(job) is not None

    def failure_kind(self, *jobs: JobSpec) -> str | None:
        """The kind of the first of ``jobs`` that failed, if any did."""
        for job in jobs:
            outcome = self._outcomes[job]
            if isinstance(outcome, JobFailure):
                return outcome.kind
        return None

    def error(self, job: JobSpec) -> str | None:
        outcome = self._outcomes[job]
        return outcome.message if isinstance(outcome, JobFailure) else None


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment: ordered jobs + a row builder."""

    name: str
    jobs: tuple[JobSpec, ...]
    build_rows: Callable[[JobResults], list] = field(compare=False)

    def unique_jobs(self) -> tuple[JobSpec, ...]:
        return ordered_unique_jobs(self.jobs)

