"""Batch verification pipeline: parallel sweeps with a content-addressed cache.

The production layer over the verifiers: fingerprint ``(network, routing
relation)`` pairs (:mod:`~repro.pipeline.fingerprint`), memoize whole
verdicts across calls and processes (:mod:`~repro.pipeline.cache`), and
sweep many (topology, algorithm) jobs concurrently with per-stage
observability (:mod:`~repro.pipeline.engine`,
:mod:`~repro.pipeline.observability`).  Each job decides its conditions
through the one dispatcher, :func:`repro.verify.dispatch.decide`.

Exposed on the command line as ``python -m repro verify-batch``.
"""

from .cache import (
    VerificationCache,
    cached_verdict,
    payload_to_verdict,
    slim_evidence,
    verdict_to_payload,
    verdicts_digest,
)
from .engine import (
    CONDITIONS,
    DEFAULT_CONDITIONS,
    BatchReport,
    BatchVerifier,
    ConditionResult,
    JobResult,
    JobSpec,
    build_topology,
    catalog_spec,
    catalog_specs,
    run_job,
    verify_catalog,
)
from .fingerprint import fingerprint_network, fingerprint_relation
from .observability import StageMetrics

__all__ = [
    "BatchReport",
    "BatchVerifier",
    "CONDITIONS",
    "ConditionResult",
    "DEFAULT_CONDITIONS",
    "JobResult",
    "JobSpec",
    "StageMetrics",
    "VerificationCache",
    "build_topology",
    "cached_verdict",
    "catalog_spec",
    "catalog_specs",
    "fingerprint_network",
    "fingerprint_relation",
    "payload_to_verdict",
    "run_job",
    "slim_evidence",
    "verdict_to_payload",
    "verdicts_digest",
    "verify_catalog",
]
