"""Survey-facing name of :mod:`repro.persist.cas`."""

from ..persist.cas import CID, ContentAddressedStore

__all__ = ["CID", "ContentAddressedStore"]
