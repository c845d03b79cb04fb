"""Crowd-backend persistence.

JSON round-trips for the :class:`~repro.crowd.aggregator.CrowdAggregator`
so the server side survives restarts, following the same robustness
contract as :mod:`repro.core.persistence`: ``aggregator_from_json``
raises one clear :class:`ValueError` naming the offending key on any
malformed payload, and :func:`load_aggregator` never raises at all —
a corrupt or truncated state file falls back to a fresh (empty)
aggregator with ``recovered_from_corruption`` set.  Losing the crowd
state is recoverable (devices keep uploading, the statistics re-grow);
a crashed ingestion service is not.

Serialization folds batches in sorted-id order, so two aggregators
with equal contents — however their batches arrived — always
serialize byte-identically.

Interplay with the serve-side write-ahead journal
(:mod:`repro.serve.wal`): the ingestion service persists a snapshot
through :func:`save_aggregator` *plus* a WAL of batches acknowledged
since that snapshot.  Both writes run through the ``torn_write_rate``
seam, and recovery composes their two guarantees — a torn snapshot
write leaves the previous complete snapshot untouched
(:func:`~repro.core.persistence.atomic_write_text` renames only after
fsync), and a torn WAL append is detected by its record checksum,
left out of replay, and cut by the
:class:`~repro.core.persistence.AppendLog` before the next append —
so a restart always lands on the last consistent state, never a
half-applied batch, and later acks never land behind the fragment.  Batches are applied
whole (:func:`batch_from_dict` validates before
:meth:`~repro.crowd.aggregator.CrowdAggregator.ingest` runs), which is
what "never half-applied" means at this layer.
"""

import json
from json.encoder import encode_basestring_ascii
from math import isfinite

from repro.core.persistence import SCHEMA_VERSION, _field, atomic_write_text
from repro.crowd.aggregator import BugObservation, CrowdAggregator, ReportBatch

#: Wire-format version of the crowd store.
CROWD_SCHEMA_VERSION = SCHEMA_VERSION


def batch_to_dict(batch):
    """The canonical wire form of one :class:`ReportBatch`.

    Shared by the aggregator snapshot, the serve WAL records, and the
    HTTP upload body (see :mod:`repro.serve`), so a batch round-trips
    identically through every path.
    """
    return {
        "batch_id": batch.batch_id,
        "app": batch.app_name,
        "device": batch.device_id,
        "time_ms": batch.time_ms,
        "observations": [
            {
                "signature": obs.signature,
                "action": obs.action,
                "operation": obs.operation,
                "file": obs.file,
                "line": obs.line,
                "self_developed": obs.is_self_developed,
                "occurrences": obs.occurrences,
                "total_hang_ms": obs.total_hang_ms,
                "max_occurrence_factor": obs.max_occurrence_factor,
            }
            for obs in batch.observations
        ],
    }


def batch_from_dict(raw):
    """Rebuild one :class:`ReportBatch` from its wire form.

    Raises ValueError (naming the offending key) on malformed input —
    the shared validation path for snapshots, WAL records, and HTTP
    upload bodies.
    """
    observations = []
    for obs in _field(raw, "observations", "crowd batch"):
        observations.append(BugObservation(
            signature=_field(obs, "signature", "crowd observation"),
            action=_field(obs, "action", "crowd observation"),
            operation=_field(obs, "operation", "crowd observation"),
            file=_field(obs, "file", "crowd observation"),
            line=_field(obs, "line", "crowd observation"),
            is_self_developed=_field(
                obs, "self_developed", "crowd observation"
            ),
            occurrences=_field(obs, "occurrences", "crowd observation"),
            total_hang_ms=_field(
                obs, "total_hang_ms", "crowd observation"
            ),
            max_occurrence_factor=_field(
                obs, "max_occurrence_factor", "crowd observation"
            ),
        ))
    return ReportBatch(
        batch_id=_field(raw, "batch_id", "crowd batch"),
        app_name=_field(raw, "app", "crowd batch"),
        device_id=_field(raw, "device", "crowd batch"),
        time_ms=_field(raw, "time_ms", "crowd batch"),
        observations=tuple(observations),
    )


def aggregator_to_json(aggregator):
    """Serialize a crowd aggregator (canonical batch order): byte for
    byte what ``json.dumps(..., indent=2)`` writes for this document."""
    return _indented_json({
        "schema": CROWD_SCHEMA_VERSION,
        "batches": [
            batch_to_dict(batch) for batch in aggregator.batches()
        ],
    })


def _float_text(value):
    """A float as json writes it (json spells NaN and the infinities
    its own way)."""
    return float.__repr__(value) if isfinite(value) else json.dumps(value)


#: How json writes a value of each exact scalar type.  Keyed by exact
#: type, so a bool is never written as the int it subclasses.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _indented_json(value, newline="\n"):
    """``json.dumps(value, indent=2)`` for *value* nested where
    *newline* starts its lines, written in one pass, without the
    generator chain of json's pure-Python encoder (which ``indent``
    selects).

    Plain dicts with string keys, lists and tuples are written here,
    their scalars with json's own string escaping and ``int``/``float``
    reprs.  Anything else (a dict with other keys, a subclass, a type
    json rejects) goes through ``json.dumps`` and is re-indented, so
    the text is always json's.
    """
    kind = type(value)
    scalar = _SCALAR_TEXT.get(kind)
    if scalar is not None:
        return scalar(value)
    inner = newline + "  "
    if kind is dict and value:
        members = []
        for key, item in value.items():
            if type(key) is not str:
                break
            scalar = _SCALAR_TEXT.get(type(item))
            members.append(
                f"{inner}{encode_basestring_ascii(key)}: "
                f"{scalar(item) if scalar else _indented_json(item, inner)}"
            )
        else:
            return "{" + ",".join(members) + newline + "}"
    elif (kind is list or kind is tuple) and value:
        items = [_indented_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value, indent=2).replace("\n", newline)


def save_aggregator(path, aggregator, faults=None, label=None):
    """Crash-atomically persist the crowd aggregator to *path*.

    Uses :func:`repro.core.persistence.atomic_write_text` (temp file +
    fsync + rename), so a crashed ingestion service restarts from the
    last complete snapshot instead of the torn file
    :func:`load_aggregator` would have to recover from.  *label* keys
    the ``torn_write`` fault seam; pass one that varies per write
    (e.g. the batch count) when the same path is rewritten repeatedly,
    so the keyed verdict does not pin every rewrite identically.
    """
    atomic_write_text(path, aggregator_to_json(aggregator), faults=faults,
                      label=label)


def aggregator_from_json(text):
    """Rebuild a crowd aggregator from its JSON form.

    Raises ValueError (naming the offending key) on malformed
    payloads: wrong schema, missing fields, or non-object batches.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"malformed crowd payload: {error}") from error
    if not isinstance(payload, dict):
        raise ValueError("malformed crowd payload: expected an object")
    if payload.get("schema") != CROWD_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported crowd schema {payload.get('schema')!r}"
        )
    batches = _field(payload, "batches", "crowd payload")
    if not isinstance(batches, list):
        raise ValueError(
            "malformed crowd payload: key 'batches' must be a list"
        )
    aggregator = CrowdAggregator()
    for raw in batches:
        aggregator.ingest(batch_from_dict(raw))
    return aggregator


def load_aggregator(text, faults=None):
    """Load a persisted crowd aggregator; never raises.

    A :class:`~repro.faults.FaultInjector` may corrupt the payload
    first (a crash mid-write on the server).  A payload that fails to
    parse or validate yields a fresh empty aggregator with
    ``recovered_from_corruption`` set — the fleet re-grows the
    statistics, while a crashed ingestion service would stop the whole
    feedback loop.
    """
    if faults is not None:
        text = faults.corrupt_text(text)
    try:
        return aggregator_from_json(text)
    except ValueError:
        aggregator = CrowdAggregator()
        aggregator.recovered_from_corruption = True
        return aggregator
