"""Schema guard: the durable on-disk formats are frozen per version.

A checkpoint or ledger written by one build must stay readable by the
next — resumability across versions is the whole point.  This test pins
the exact field set of each format *version*: changing the schema without
bumping the format number fails here, and bumping the number forces you
to extend the frozen tables below (documenting the new shape).
"""

from __future__ import annotations

from repro.core.checkpoint import (
    CHECKPOINT_FIELDS,
    CHECKPOINT_FORMAT,
    CHECKPOINT_KIND,
    COUNT_KEYS,
)
from repro.util.ledger import LEDGER_FORMAT, LEDGER_KIND

#: format version -> exact top-level checkpoint keys.  NEVER edit an
#: existing entry; add a new one when bumping CHECKPOINT_FORMAT.
FROZEN_CHECKPOINT_SCHEMAS = {
    1: (
        "kind", "format", "run_key", "work_key", "s", "domain", "total",
        "completed", "best", "counts", "exhausted_s", "complete",
        "created_unix",
    ),
    # Format 2: the sweep has one index domain (the surviving subsets in
    # lexicographic order), so the "domain" field is gone.
    2: (
        "kind", "format", "run_key", "work_key", "s", "total",
        "completed", "best", "counts", "exhausted_s", "complete",
        "created_unix",
    ),
}

FROZEN_COUNT_KEYS = {
    1: ("pruned", "evaluated", "infeasible", "bound_skipped"),
    2: ("pruned", "evaluated", "infeasible", "bound_skipped"),
}

#: format version -> the progress-ledger's top-level keys.
FROZEN_LEDGER_SCHEMAS = {
    1: ("kind", "format", "fingerprint", "done"),
}


def _frozen(table: dict, version: int, what: str):
    assert version in table, (
        f"{what} format {version} has no frozen schema entry — add one to "
        f"tests/test_checkpoint_schema_guard.py documenting the new shape"
    )
    return table[version]


def test_checkpoint_fields_match_frozen_schema():
    expected = _frozen(
        FROZEN_CHECKPOINT_SCHEMAS, CHECKPOINT_FORMAT, "checkpoint"
    )
    assert tuple(CHECKPOINT_FIELDS) == expected, (
        "CHECKPOINT_FIELDS changed without bumping CHECKPOINT_FORMAT — "
        "old checkpoints would be silently misread.  Bump the format and "
        "add a new frozen entry."
    )


def test_checkpoint_count_keys_match_frozen_schema():
    expected = _frozen(FROZEN_COUNT_KEYS, CHECKPOINT_FORMAT, "checkpoint")
    assert tuple(COUNT_KEYS) == expected, (
        "COUNT_KEYS changed without bumping CHECKPOINT_FORMAT"
    )


def test_written_checkpoint_carries_exactly_the_frozen_fields(tmp_path):
    from repro.core.checkpoint import CheckpointConfig, SolveCheckpoint

    ck = SolveCheckpoint(
        CheckpointConfig(path=tmp_path / "ck.json"), "run-key"
    )
    ck.enter_level(2, 10)
    ck.flush()
    import json

    payload = json.loads((tmp_path / "ck.json").read_text())
    assert tuple(payload) == tuple(CHECKPOINT_FIELDS)
    assert payload["kind"] == CHECKPOINT_KIND


def test_written_ledger_carries_exactly_the_frozen_fields(tmp_path):
    from repro.util.ledger import ProgressLedger

    expected = _frozen(FROZEN_LEDGER_SCHEMAS, LEDGER_FORMAT, "ledger")
    ledger = ProgressLedger(tmp_path / "ledger.json", {"kind": "test"})
    ledger.mark("0", {"x": 1})
    import json

    payload = json.loads((tmp_path / "ledger.json").read_text())
    assert tuple(payload) == expected
    assert payload["kind"] == LEDGER_KIND
