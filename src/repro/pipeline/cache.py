"""Content-addressed cache for verification artifacts.

Keys are ``(fingerprint, stage)`` pairs where the fingerprint comes from
:mod:`repro.pipeline.fingerprint` -- so a cache entry can never be stale:
mutate the network or the routing relation in any observable way and the
key changes.  Payloads are JSON-serializable by construction (channel ids,
not channel objects), which keeps entries portable across processes -- the
process-pool workers of the batch engine share one on-disk cache directory.

One artifact is memoized: the whole verdict of one condition
(``verdict:<stage>``), stored and looked up by the condition dispatcher
(:func:`repro.verify.dispatch.decide`).  The stage is the condition key,
except that the theorem's names the triage flag (``theorem/triage`` or
``theorem/full``): a triage verdict carries the screen's witness, so it
must never answer a full check.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from collections.abc import Iterable
from pathlib import Path
from typing import Any

from ..core.cycles import Cycle
from ..routing.relation import RoutingAlgorithm
from ..verify.report import Verdict, stable_evidence


class VerificationCache:
    """LRU memo store with an optional shared on-disk layer.

    Without a ``directory`` the cache lives in this process only (the
    deterministic in-process engine mode); with one, entries are also
    persisted as one JSON file per key so concurrent workers and later runs
    reuse them.

    ``max_entries`` bounds the store (``None`` = unbounded): inserting past
    the bound evicts the least-recently-used key, removing its disk file
    too -- the long-running re-verification service leans on this so a
    fault-sweep burst cannot grow the store without bound.

    Corruption is *never* an error: a truncated, non-JSON, or structurally
    wrong entry -- whether caught here by the type gate or downstream by a
    consumer that calls :meth:`note_corrupt` -- is treated as a miss, its
    file is deleted, and the artifact is recomputed and overwritten.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        *,
        max_entries: int | None = None,
    ) -> None:
        self._mem: OrderedDict[str, Any] = OrderedDict()
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    @staticmethod
    def key(fingerprint: str, stage: str) -> str:
        return f"{stage.replace(':', '_').replace('/', '_')}-{fingerprint}"

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def _unlink(self, key: str) -> None:
        if self.directory is not None:
            try:
                self._path(key).unlink()
            except OSError:
                pass

    def _remember(self, key: str, payload: Any) -> None:
        """Insert at the most-recent end, evicting LRU keys past the bound."""
        self._mem[key] = payload
        self._mem.move_to_end(key)
        if self.max_entries is not None:
            while len(self._mem) > self.max_entries:
                victim, _ = self._mem.popitem(last=False)
                self.evictions += 1
                self._unlink(victim)

    def get(self, fingerprint: str, stage: str) -> Any | None:
        """Cached payload for ``(fingerprint, stage)`` or ``None``."""
        key = self.key(fingerprint, stage)
        if key in self._mem:
            self._mem.move_to_end(key)
            self.hits += 1
            return self._mem[key]
        if self.directory is not None:
            path = self._path(key)
            if path.exists():
                try:
                    payload = json.loads(path.read_text())
                except (OSError, ValueError):
                    payload = None
                # Type gate: every artifact layer stores a dict or a list;
                # anything else is a corrupted/foreign file.
                if payload is not None and isinstance(payload, (dict, list)):
                    self._remember(key, payload)
                    self.hits += 1
                    return payload
                self.corrupt += 1
                self._unlink(key)
        self.misses += 1
        return None

    def put(self, fingerprint: str, stage: str, payload: Any) -> None:
        """Store a JSON-serializable payload under ``(fingerprint, stage)``."""
        key = self.key(fingerprint, stage)
        self._remember(key, payload)
        self.stores += 1
        if self.directory is not None:
            path = self._path(key)
            # atomic publish: concurrent workers may race on the same key
            fd, tmp = tempfile.mkstemp(dir=str(self.directory), suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as f:
                    json.dump(payload, f)
                os.replace(tmp, path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def note_corrupt(self, fingerprint: str, stage: str) -> None:
        """A consumer failed to rehydrate this entry: drop it everywhere.

        The earlier ``get`` counted a hit for it; rebalance that into a miss
        so hit-rate accounting reflects what actually happened.
        """
        key = self.key(fingerprint, stage)
        self._mem.pop(key, None)
        self._unlink(key)
        self.corrupt += 1
        if self.hits > 0:
            self.hits -= 1
        self.misses += 1

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when none ran)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "entries": len(self._mem),
            "hit_rate": round(self.hit_rate, 4),
        }

    def __len__(self) -> int:
        return len(self._mem)


# ----------------------------------------------------------------------
# verdict (de)hydration
# ----------------------------------------------------------------------
#: evidence values preserved verbatim in cached verdicts / reports
_SCALAR = (bool, int, float, str)

#: what rehydrating a structurally wrong (but JSON-parseable) payload raises
_RESTORE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, IndexError)


def slim_evidence(evidence: dict[str, Any]) -> dict[str, Any]:
    """JSON-safe projection of a verdict's evidence.

    Scalars survive unchanged; cycle witnesses become their channel-id
    lists; rich objects (classifications, deadlock configurations,
    reduction traces) are summarized to strings -- the full objects are
    recomputable, the report only needs the headline facts.

    Evidence is canonicalized first (:func:`stable_evidence`), so set-valued
    witnesses serialize in one deterministic order no matter which
    process-pool worker produced them.
    """
    out: dict[str, Any] = {}
    for k, v in stable_evidence(evidence).items():
        if isinstance(v, _SCALAR):
            out[k] = v
        elif isinstance(v, Cycle):
            out[k] = [c.cid for c in v.channels]
        elif isinstance(v, list) and all(isinstance(x, _SCALAR) for x in v):
            out[k] = v
        elif isinstance(v, list) and v and all(hasattr(x, "cid") for x in v):
            out[k] = [x.cid for x in v]
        else:
            out[k] = repr(v)
    return out


def verdict_to_payload(verdict: Verdict) -> dict[str, Any]:
    return {
        "algorithm": verdict.algorithm,
        "condition": verdict.condition,
        "deadlock_free": verdict.deadlock_free,
        "necessary_and_sufficient": verdict.necessary_and_sufficient,
        "reason": verdict.reason,
        "evidence": slim_evidence(verdict.evidence),
    }


def payload_to_verdict(payload: dict[str, Any]) -> Verdict:
    return Verdict(
        payload["algorithm"],
        payload["condition"],
        payload["deadlock_free"],
        necessary_and_sufficient=payload["necessary_and_sufficient"],
        reason=payload["reason"],
        evidence=dict(payload["evidence"]),
    )


def cached_verdict(
    algorithm: RoutingAlgorithm,
    stage: str,
    compute,
    cache: VerificationCache | None,
    *,
    fingerprint: str | None = None,
) -> tuple[Verdict, bool]:
    """Memoize a whole verification verdict under ``verdict:<stage>``.

    ``compute`` is a zero-argument callable producing the
    :class:`~repro.verify.report.Verdict`.  Returns ``(verdict, was_cached)``.
    """
    if cache is None:
        return compute(), False
    fp = fingerprint or algorithm.fingerprint()
    key = f"verdict:{stage}"
    payload = cache.get(fp, key)
    if payload is not None:
        try:
            return payload_to_verdict(payload), True
        except _RESTORE_ERRORS:
            cache.note_corrupt(fp, key)
    verdict = compute()
    cache.put(fp, key, verdict_to_payload(verdict))
    return verdict, False


def verdicts_digest(verdicts: Iterable[Verdict]) -> str:
    """Order-sensitive digest of a sequence of verdicts.

    Hashes each verdict's canonical cached payload (:func:`verdict_to_payload`
    over :func:`slim_evidence`-canonicalized evidence), so two runs agree iff
    they produced byte-identical verdicts *including* reasons and witness
    evidence -- the equality the incremental-vs-full metamorphic battery
    pins.  Cache round-trips preserve it because ``slim_evidence`` is
    idempotent on its own output.
    """
    h = hashlib.blake2b(digest_size=20)
    for v in verdicts:
        h.update(json.dumps(verdict_to_payload(v), sort_keys=True).encode())
        h.update(b"\x00")
    return h.hexdigest()
