"""Campaign checkpoint/resume: crash-resilient long-running campaigns.

A sharded campaign — ``Campaign.portfolio()`` or a distributed fleet,
both run by the coordinator :func:`repro.testing.fleet.run_fleet` — can
periodically persist its progress: the detached
:class:`~repro.testing.engine.TestReport` of every *completed* shard plus
the materialized strategy mix, written to a checkpoint file.  If the campaign is
killed (SIGINT, OOM, machine reboot), ``python -m repro test --resume
FILE`` (or ``serve --resume``, ``Campaign.portfolio(resume=...)``)
restarts it: shards whose final reports were checkpointed are not
re-run; only the shards that were still in flight start over, and the
resumed campaign keeps checkpointing to the same file.

Granularity is the *shard* (one strategy spec driven by one worker
process): a shard's mid-campaign strategy state (DFS frame stacks, RNG
positions) is deliberately not persisted — resuming re-runs an
incomplete shard from scratch, which is always sound because shards are
independent and deterministic per spec.

The checkpoint file is one JSON document, ``{"version": 3,
"fingerprint": ..., "specs": [{"name", "params"}, ...], "completed":
{"<shard>": <report document>}}`` — the report documents being what the
shards' ``result`` frames carried (:mod:`repro.testing.record`) — written
atomically (temp file + ``os.replace``), so a kill mid-write leaves the
previous checkpoint intact.  A fingerprint of the campaign identity
(:func:`config_fingerprint`: every declared ``TestConfig`` field but the
few in :data:`NOT_IDENTITY`) guards against resuming someone else's
checkpoint.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from ..errors import PSharpError
from .engine import TestReport
from .portfolio import StrategySpec
from .record import (
    REPORT_VERSION, array_of, dumps, int_keyed, read_document, write_atomic,
)
from .trace import sha256

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import TestConfig

#: The declared fields that are *not* campaign identity — changing one
#: does not change what a completed shard's report means.  The mix
#: (``strategy``, ``specs``, ``portfolio_workers``) is materialized once
#: at campaign start and rides *inside* the checkpoint (the default mix
#: draws fresh random seeds per call, so it is reused verbatim on resume,
#: not regenerated); the rest say how long to wait and where to log.
#: Every other declared field is identity, a field added later included.
#: (``runtime_factory`` is not declared at all.)
NOT_IDENTITY = frozenset({
    "strategy", "specs", "portfolio_workers", "time_limit",
    "iteration_timeout", "events_path",
})


def config_fingerprint(config: "TestConfig") -> str:
    """A stable digest of the campaign identity a checkpoint belongs to:
    the canonical encoding of every declared field outside
    :data:`NOT_IDENTITY`.  A value campaign JSON refuses (a function-local
    program class, a non-JSON payload) is identified by its ``repr``, so a
    config that cannot serialize can still checkpoint."""
    identity = {}
    for name, rule in config.FIELDS:
        if name not in NOT_IDENTITY:
            value = getattr(config, name)
            try:
                identity[name] = rule.encode(value)
            except PSharpError:
                identity[name] = repr(value)
    key = json.dumps(identity, sort_keys=True)
    return sha256(key.encode("utf-8")).hexdigest()


def save_checkpoint(
    path: "str | os.PathLike",
    *,
    fingerprint: str,
    specs: List["StrategySpec"],
    completed: Dict[int, Union["TestReport", Dict[str, Any]]],
) -> None:
    """Atomically persist campaign progress to ``path``.

    ``completed`` maps shard index -> the shard's final report, or its
    document (``report.encode()``) — what the fleet coordinator keeps, so
    each shard is encoded once however many checkpoints it rides in.
    The write goes through :func:`~repro.testing.record.write_atomic`,
    so readers never observe a torn checkpoint."""
    write_atomic(path, dumps({
        "version": REPORT_VERSION,
        "fingerprint": fingerprint,
        "specs": [spec.to_obj() for spec in specs],
        "completed": {
            str(shard): report if type(report) is dict else report.encode()
            for shard, report in completed.items()
        },
    }))


def checkpoint_state(document: Dict[str, Any], path: str) -> Dict[str, Any]:
    """A checkpoint document decoded: ``specs`` as
    :class:`~repro.testing.portfolio.StrategySpec`\\ s, ``completed`` as
    ``{shard: TestReport}`` and ``documents`` as ``{shard: the report
    document it was decoded from}``.  Anything off-schema is a
    :class:`PSharpError`."""
    if set(document) != {"version", "fingerprint", "specs", "completed"}:
        raise PSharpError(
            f"corrupt checkpoint file {path!r}: not a campaign checkpoint"
        )
    try:
        specs = array_of(StrategySpec.decode)(document["specs"])
        documents = int_keyed(document["completed"])
        completed = {
            shard: TestReport.decode(report) for shard, report in documents.items()
        }
        if type(document["fingerprint"]) is not str or any(
            shard >= len(specs) for shard in completed
        ):
            raise ValueError("no fingerprint, or a shard that is not the campaign's")
    except (PSharpError, ValueError) as exc:
        raise PSharpError(f"corrupt checkpoint file {path!r}: {exc}") from exc
    return {**document, "specs": specs, "completed": completed, "documents": documents}


def load_checkpoint(path: "str | os.PathLike") -> Dict[str, Any]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`PSharpError` with a clear message when the file is
    missing, truncated, corrupt, or from an incompatible version (one an
    older build pickled included: it is named as such, never loaded)."""
    path = os.fspath(path)
    return checkpoint_state(read_document(path, "checkpoint"), path)


def verify_checkpoint(
    state: Dict[str, Any], config: "TestConfig", path: Optional[str] = None
) -> None:
    """Refuse to resume a checkpoint recorded for a different campaign."""
    expected = config_fingerprint(config)
    if state["fingerprint"] != expected:
        where = f" {path!r}" if path else ""
        raise PSharpError(
            f"checkpoint{where} was recorded for a different campaign (a "
            "field of its identity differs — program, seed, budgets, "
            "reduction, monitors, faults... — or it was written by a build "
            "that fingerprinted fewer fields); re-run without --resume or "
            "point it at the matching checkpoint file"
        )
