"""Crowd-backend persistence.

JSON round-trips for the :class:`~repro.crowd.aggregator.CrowdAggregator`,
with the robustness contract of :mod:`repro.core.persistence`:
``aggregator_from_json`` raises one :class:`ValueError` naming the
offending key on any malformed payload, and :func:`load_aggregator`
never raises (a corrupt state file yields a fresh aggregator with
``recovered_from_corruption`` set: the statistics re-grow, while a
crashed ingestion service would stop the feedback loop).  Batches
serialize in sorted-id order, so equal aggregators serialize
byte-identically however their batches arrived.

The ingestion service persists a snapshot through
:func:`save_aggregator` plus a write-ahead journal of the batches acked
since (:mod:`repro.serve.wal`); :mod:`repro.serve.state` composes their
recovery guarantees, so a restart lands on the last consistent state.
Batches are applied whole: :func:`batch_from_dict` checks every
field's presence and JSON type before
:meth:`~repro.crowd.aggregator.CrowdAggregator.ingest` runs.
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


#: Each wire field's key and JSON type, in the order of the dataclass
#: fields it fills.  A number is an int or a float, never a bool.
_NUMBER = (int, float)
_BATCH_FIELDS = (("batch_id", str), ("app", str), ("device", _NUMBER),
                 ("time_ms", _NUMBER), ("observations", list))
_OBSERVATION_FIELDS = (
    ("signature", str), ("action", str), ("operation", str), ("file", str),
    ("line", _NUMBER), ("self_developed", bool), ("occurrences", _NUMBER),
    ("total_hang_ms", _NUMBER), ("max_occurrence_factor", _NUMBER),
)
_JSON_TYPES = {str: "a string", _NUMBER: "a number", bool: "a boolean",
               list: "an array"}


def _typed_fields(raw, fields, context):
    """The values of *fields* in *raw*, each checked for its JSON type."""
    values = []
    for key, kind in fields:
        value = _field(raw, key, context)
        if not isinstance(value, kind) or (type(value) is bool
                                           and kind is not bool):
            raise ValueError(
                f"malformed {context}: {key!r} must be {_JSON_TYPES[kind]}, "
                f"got {type(value).__name__}"
            )
        values.append(value)
    return values


def batch_from_dict(raw):
    """Rebuild one :class:`ReportBatch` from its wire form.

    Raises ValueError (naming the offending key) on a missing or
    mistyped field — the shared validation path for snapshots, WAL
    records, and HTTP upload bodies.  A batch id that is not a string
    would otherwise be acked, then fail every publish (which sorts by
    id).
    """
    batch_id, app_name, device_id, time_ms, observations = _typed_fields(
        raw, _BATCH_FIELDS, "crowd batch"
    )
    return ReportBatch(
        batch_id=batch_id, app_name=app_name, device_id=device_id,
        time_ms=time_ms,
        observations=tuple(
            BugObservation(*_typed_fields(obs, _OBSERVATION_FIELDS,
                                          "crowd observation"))
            for obs in observations
        ),
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
