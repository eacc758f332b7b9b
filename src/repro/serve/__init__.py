"""Campaign job service: simulation-as-a-service over the campaign layer.

``python -m repro serve`` exposes the declarative experiment campaigns of
:mod:`repro.analysis.campaign` as an asyncio HTTP/JSON service (stdlib
only — no framework, no new dependencies):

* **submission** — ``POST /v1/jobs`` accepts the same workload x PPC x
  configuration grids as the campaign CLI and expands them through the
  identical defaulting path, so HTTP cells hash to the same cache keys,
* **durability** — accepted jobs are journaled in a
  :class:`repro.ckpt.recordlog.RecordLog` before the 202 goes out; a
  server killed mid-queue restarts without losing or re-running accepted
  cells (:mod:`repro.serve.queue`),
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

from repro.serve.dedup import CellResolver, InFlightTable, ResultMemo
from repro.serve.queue import (
    Job,
    JobCell,
    JobJournal,
    QUEUE_FILENAME,
    WorkerPool,
    expand_request,
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
