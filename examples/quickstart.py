#!/usr/bin/env python3
"""Quickstart: audit your cloud files with blockchain provenance.

The RQ1 scenario in its smallest form: a user stores files in a cloud
service; every operation is captured as a provenance record, Merkle-
batched, and anchored on a blockchain; an audit later *proves* the
history is exactly what happened.

Run:  python examples/quickstart.py
"""

from repro import ProvChain
from repro.chain import LightClient


def main() -> None:
    # A ProvChain-style system: hooked cloud store + PoW-sealed chain.
    system = ProvChain(difficulty_bits=6, batch_size=4)

    # Ordinary storage operations — capture is automatic.
    system.create("alice", "report.pdf", b"draft 1")
    system.update("alice", "report.pdf", b"draft 2")
    system.share("alice", "report.pdf", "bob")
    system.read("bob", "report.pdf")

    # Audit: every record comes back with a verified chain anchor.
    answer = system.audit_object("report.pdf")
    print(f"audit verified: {answer.verified}")
    for record, proof in zip(answer.records, answer.proofs):
        print(f"  t={record['timestamp']:>3}  {record['operation']:<7} "
              f"by {record['actor'][:14]:<16} "
              f"anchored@block {proof.block_height}")

    # Third-party audit: an auditor holding only block headers checks
    # the very proofs the node just checked against its own headers.
    auditor = LightClient(system.chain.chain_id)
    auditor.sync_from(system.chain)
    offline = all(auditor.verify_anchored_record(record, proof)
                  for record, proof in zip(answer.records, answer.proofs))
    print(f"auditor with {auditor.height + 1} headers verified: {offline}")

    # Privacy: actors are pseudonyms; only the mapping holder can
    # re-identify.
    actor = answer.records[0]["actor"]
    print(f"pseudonym {actor} -> {system.reidentify(actor)}")

    # Tamper evidence: records are append-only, so rewriting history
    # means serving a forged copy — and its anchored proof fails.
    forged = dict(answer.records[0], operation="never-happened")
    assert not auditor.verify_anchored_record(forged, answer.proofs[0])
    print("forged history detected: its proof fails, as it must")


if __name__ == "__main__":
    main()
