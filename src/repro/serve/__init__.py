"""Campaign job service: simulation-as-a-service over the campaign layer.

``python -m repro serve`` exposes the declarative experiment campaigns of
:mod:`repro.analysis.campaign` as an asyncio HTTP/JSON service (stdlib
only — no framework, no new dependencies):

* **submission** — ``POST /v1/jobs`` accepts the same workload x PPC x
  configuration grids as the campaign CLI and expands them through the
  same function (:func:`repro.analysis.campaign.expand_request`), so the
  two reject the same grids and HTTP cells hash to the same cache keys,
* **durability** — accepted jobs are journaled (request, status and
  cell keys, :class:`repro.serve.queue.JobJournal`) before the 202 goes
  out and again when they end; a completed cell is durable in one place,
  the tenant's result cache, so a server killed mid-queue restarts
  without losing or re-running accepted cells,
* **deduplication** — each cell resolves through the tenant's on-disk
  cache, the in-flight table (one computation, many subscribers) and a
  bounded cross-tenant memo (:mod:`repro.serve.dedup`),
* **execution** — cache misses run on a
  :class:`repro.exec.pool.SupervisedPool` (rebuild-once/degrade
  worker-death tolerance),
* **progress** — per-job Server-Sent Events with history replay
  (:mod:`repro.serve.sse`),
* **tenancy** — per-tenant cache namespaces with byte budgets and LRU
  eviction (:mod:`repro.serve.tenants`).
"""

from repro.analysis.campaign import expand_request
from repro.serve.dedup import CellResolver, InFlightTable, ResultMemo
from repro.serve.queue import (
    Job,
    JobCell,
    JobJournal,
    QUEUE_FILENAME,
    WorkerPool,
)
from repro.serve.server import (
    CampaignServer,
    DEFAULT_ROOT,
    JobService,
    ServeConfig,
    run_server,
)
from repro.serve.sse import EventBroker, format_sse
from repro.serve.tenants import (
    DEFAULT_TENANT,
    TenantManager,
    TenantNameError,
    TenantNamespace,
    validate_tenant_name,
)

__all__ = [
    "CampaignServer",
    "CellResolver",
    "DEFAULT_ROOT",
    "DEFAULT_TENANT",
    "EventBroker",
    "InFlightTable",
    "Job",
    "JobCell",
    "JobJournal",
    "JobService",
    "QUEUE_FILENAME",
    "ResultMemo",
    "ServeConfig",
    "TenantManager",
    "TenantNameError",
    "TenantNamespace",
    "WorkerPool",
    "expand_request",
    "format_sse",
    "run_server",
    "validate_tenant_name",
]
