"""Domain provenance record schemas — the paper's Table 1, executable.

Table 1 lists the fields a provenance record carries in three domains:

=========================  ========================  =====================
Product Supply Chain       Digital Forensics         Scientific Collab.
=========================  ========================  =====================
Unique Product ID          Case Number               Task ID
Batch or Lot Number        Investigation Stage       Workflow ID
Mfg & Expiration Date      Case Start Date           Execution Time
Travel Trace               Case Closure Date         User ID
Product Type or Category   File Types                Input Data
Manufacturer ID            Access Patterns           Output Data
Quick Access URL/QR Code   Files Dependency          Invalidated Results
=========================  ========================  =====================

Each column becomes a :class:`RecordSchema`; healthcare and machine
learning (the remaining Table 2 domains) get schemas assembled from the
considerations in §4.3–4.4.  ``analysis.tables.render_table1`` regenerates
the published table from these registrations, which is the TAB1
experiment.

The schemas are defined in :mod:`repro.persist.codec`, beside the one
record rule (:func:`~repro.persist.codec.check_record`) that applies them
at every door that stores records; the storage layer may not import this
package.  Records are plain dicts so they flow directly into
:class:`~repro.persist.provdb.ProvenanceDatabase` and the anchor layer;
this module provides construction, validation, and hashing.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..crypto.hashing import DOMAIN_RECORD, hash_bytes, hash_canonical
from ..errors import RecordValidationError
from ..persist.codec import DOMAIN_SCHEMAS, RecordSchema, check_record

# Table 1's published columns (the regeneration target for TAB1).
TABLE1_DOMAINS = ("supply_chain", "digital_forensics", "scientific")


def make_record(
    domain: str,
    record_id: str,
    subject: str,
    actor: str,
    operation: str,
    timestamp: int,
    **domain_fields: Any,
) -> dict:
    """Build and validate a provenance record for ``domain``.

    >>> rec = make_record(
    ...     "scientific", "r1", subject="out.csv", actor="alice",
    ...     operation="execute", timestamp=5, task_id="t1",
    ...     workflow_id="w1", execution_time=3, user_id="alice",
    ...     input_data=["in.csv"], output_data=["out.csv"])
    >>> rec["domain"]
    'scientific'
    """
    record = {
        "record_id": record_id,
        "domain": domain,
        "subject": subject,
        "actor": actor,
        "operation": operation,
        "timestamp": timestamp,
        **domain_fields,
    }
    validate_record(record)
    return record


def validate_record(record: Mapping[str, Any]) -> None:
    """Validate against the schema named in the record's ``domain``,
    which must be registered."""
    check_record(record)
    if record.get("domain") not in DOMAIN_SCHEMAS:
        raise RecordValidationError(
            f"unknown domain {record.get('domain')!r}; known: "
            f"{sorted(DOMAIN_SCHEMAS)}")


def record_digest(record: Mapping[str, Any],
                  encoded: bytes | None = None) -> bytes:
    """The hash that goes into Merkle batches and on-chain registries.
    It covers every field of the record.  ``encoded`` is the record's
    canonical bytes when the caller already has them; they are hashed
    as they are."""
    if encoded is not None:
        return hash_bytes(encoded, DOMAIN_RECORD)
    return hash_canonical(dict(record), DOMAIN_RECORD)
