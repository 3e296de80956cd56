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

Records are plain dicts so they flow directly into
:class:`~repro.persist.provdb.ProvenanceDatabase` and the anchor layer;
the schema provides construction, validation, and hashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..crypto.hashing import DOMAIN_RECORD, hash_bytes, hash_canonical
from ..errors import RecordValidationError

# Core fields every record carries regardless of domain; these drive the
# ProvenanceDatabase indexes.
CORE_FIELDS = ("record_id", "domain", "subject", "actor", "operation",
               "timestamp")

Validator = Callable[[Any], bool]


def _non_empty_str(value: Any) -> bool:
    return isinstance(value, str) and bool(value)


def _non_negative_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _str_list(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(v, str) for v in value
    )


@dataclass(frozen=True)
class RecordSchema:
    """A domain's provenance record layout.

    ``fields`` maps field name -> (validator, paper_label, required).
    ``paper_label`` preserves the exact Table 1 wording so the table can
    be regenerated verbatim from code.
    """

    domain: str
    fields: Mapping[str, tuple[Validator, str, bool]] = field(
        default_factory=dict
    )

    def required_fields(self) -> list[str]:
        return [name for name, (_, _, req) in self.fields.items() if req]

    def paper_labels(self) -> list[str]:
        return [label for (_, label, _) in self.fields.values()]

    def validate(self, record: Mapping[str, Any]) -> None:
        """Raise :class:`RecordValidationError` on any schema violation."""
        for core in CORE_FIELDS:
            if core not in record:
                raise RecordValidationError(
                    f"{self.domain}: missing core field {core!r}"
                )
        if record["domain"] != self.domain:
            raise RecordValidationError(
                f"record domain {record['domain']!r} does not match schema "
                f"{self.domain!r}"
            )
        for name, (validator, label, required) in self.fields.items():
            if name not in record:
                if required:
                    raise RecordValidationError(
                        f"{self.domain}: missing field {name!r} ({label})"
                    )
                continue
            if not validator(record[name]):
                raise RecordValidationError(
                    f"{self.domain}: field {name!r} ({label}) failed "
                    f"validation with value {record[name]!r}"
                )
        unknown = (
            set(record)
            - set(self.fields)
            - set(CORE_FIELDS)
            - {"extra", "anchor"}
        )
        if unknown:
            raise RecordValidationError(
                f"{self.domain}: unknown fields {sorted(unknown)}"
            )


SUPPLY_CHAIN_SCHEMA = RecordSchema(
    domain="supply_chain",
    fields={
        "product_id": (_non_empty_str, "Unique Product ID", True),
        "batch_number": (_non_empty_str, "Batch or Lot Number", True),
        "manufacturing_date": (_non_negative_int,
                               "Manufacturing and Expiration Date", True),
        "expiration_date": (_non_negative_int,
                            "Manufacturing and Expiration Date", False),
        "travel_trace": (_str_list, "Travel Trace", True),
        "product_type": (_non_empty_str, "Product Type or Category", True),
        "manufacturer_id": (_non_empty_str, "Manufacturer ID", True),
        "access_url": (_non_empty_str, "Quick Access URL or QR Code", False),
    },
)

FORENSICS_SCHEMA = RecordSchema(
    domain="digital_forensics",
    fields={
        "case_number": (_non_empty_str, "Case Number", True),
        "stage": (_non_empty_str, "Investigation Stage", True),
        "case_start": (_non_negative_int, "Case Start Date", True),
        "case_closure": (_non_negative_int, "Case Closure Date", False),
        "file_types": (_str_list, "File Types", True),
        "access_patterns": (_str_list, "Access Patterns", False),
        "file_dependencies": (_str_list, "Files Dependency", False),
    },
)

SCIENTIFIC_SCHEMA = RecordSchema(
    domain="scientific",
    fields={
        "task_id": (_non_empty_str, "Task ID", True),
        "workflow_id": (_non_empty_str, "Workflow ID", True),
        "execution_time": (_non_negative_int, "Execution Time", True),
        "user_id": (_non_empty_str, "User ID", True),
        "input_data": (_str_list, "Input Data", True),
        "output_data": (_str_list, "Output Data", True),
        "invalidated_results": (_str_list, "Invalidated Results", False),
    },
)

# The remaining Table 2 domains, with fields assembled from the paper's
# §4.3 (healthcare: EHR lifecycle, consent, regulation) and §4.4
# (ML: datasets, operations, models, training rounds).
HEALTHCARE_SCHEMA = RecordSchema(
    domain="healthcare",
    fields={
        "patient_pseudonym": (_non_empty_str, "Patient Pseudonym", True),
        "ehr_id": (_non_empty_str, "EHR Record ID", True),
        "provider_id": (_non_empty_str, "Provider ID", True),
        "consent_ref": (_non_empty_str, "Consent Reference", False),
        "record_types": (_str_list, "Record Types", True),
        "regulation": (_non_empty_str, "Governing Regulation", False),
    },
)

ML_SCHEMA = RecordSchema(
    domain="machine_learning",
    fields={
        "asset_id": (_non_empty_str, "Asset ID", True),
        "asset_type": (lambda v: v in ("dataset", "operation", "model"),
                       "Asset Type", True),
        "training_round": (_non_negative_int, "Training Round", False),
        "parent_assets": (_str_list, "Parent Assets", True),
        "metrics_digest": (_non_empty_str, "Metrics Digest", False),
        "contributor_id": (_non_empty_str, "Contributor ID", True),
    },
)

DOMAIN_SCHEMAS: dict[str, RecordSchema] = {
    schema.domain: schema
    for schema in (
        SUPPLY_CHAIN_SCHEMA,
        FORENSICS_SCHEMA,
        SCIENTIFIC_SCHEMA,
        HEALTHCARE_SCHEMA,
        ML_SCHEMA,
    )
}

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
    schema = DOMAIN_SCHEMAS.get(domain)
    if schema is None:
        raise RecordValidationError(
            f"unknown domain {domain!r}; known: {sorted(DOMAIN_SCHEMAS)}"
        )
    record = {
        "record_id": record_id,
        "domain": domain,
        "subject": subject,
        "actor": actor,
        "operation": operation,
        "timestamp": timestamp,
        **domain_fields,
    }
    schema.validate(record)
    return record


def validate_record(record: Mapping[str, Any]) -> None:
    """Validate against the schema named in the record's ``domain``."""
    domain = record.get("domain")
    schema = DOMAIN_SCHEMAS.get(str(domain))
    if schema is None:
        raise RecordValidationError(f"unknown domain {domain!r}")
    schema.validate(record)


def record_digest(record: Mapping[str, Any],
                  encoded: bytes | None = None) -> bytes:
    """The hash that goes into Merkle batches and on-chain registries.
    ``encoded`` is the record's canonical bytes when the caller already
    has them; they are hashed as they are unless the record carries an
    anchor annotation."""
    # The anchor annotation is excluded: it is added *after* hashing.
    if encoded is not None and "anchor" not in record:
        return hash_bytes(encoded, DOMAIN_RECORD)
    content = {k: v for k, v in record.items() if k != "anchor"}
    return hash_canonical(content, DOMAIN_RECORD)
