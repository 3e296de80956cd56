"""Survey-facing name of :mod:`repro.persist.provdb`."""

from ..persist.provdb import ProvenanceDatabase

__all__ = ["ProvenanceDatabase"]
