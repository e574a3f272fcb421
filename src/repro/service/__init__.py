"""Async batch-simulation service.

Many :class:`JobSpec`-described runs in; each *unique* one executed
once on a bounded pool of persistent worker processes; results served
through a content-addressed cache.  See ``docs/SERVICE.md``.
"""

from repro.service.cache import ResultCache
from repro.service.runner import build_simulation, execute_job
from repro.service.scheduler import (
    BatchService,
    Job,
    JobFailedError,
    ServiceClosedError,
)
from repro.service.spec import JobResult, JobSpec, state_digest
from repro.service.spool import SpoolClient, SpoolServer, spool_layout

__all__ = [
    "BatchService",
    "Job",
    "JobFailedError",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "ServiceClosedError",
    "SpoolClient",
    "SpoolServer",
    "build_simulation",
    "execute_job",
    "spool_layout",
    "state_digest",
]
