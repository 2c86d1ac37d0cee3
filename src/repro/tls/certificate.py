"""The certificate model.

A :class:`Certificate` is an immutable record of what an Internet-wide
scan or a CT log entry exposes about a leaf certificate: who it claims to
secure (SANs), who signed it, when it is valid, and enough identity
(serial, fingerprint, crt.sh-style numeric id) to correlate the same
certificate across data sets — the correlation the paper's inspection
stage lives on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import date, timedelta
from enum import Enum
from typing import Any


class ValidationLevel(Enum):
    """How the issuing CA validated the requester."""

    DV = "domain-validated"
    OV = "organization-validated"
    EV = "extended-validation"


@dataclass(frozen=True, slots=True)
class Certificate:
    """An issued leaf certificate.

    ``crtsh_id`` is the monotonically increasing identifier assigned when
    the certificate is logged to CT (mirroring crt.sh ids); certificates
    never logged (e.g. from an organization's internal CA) have id 0.
    """

    serial: int
    common_name: str
    sans: tuple[str, ...]
    issuer: str
    not_before: date
    not_after: date
    validation: ValidationLevel = ValidationLevel.DV
    crtsh_id: int = 0
    key_id: int = 0
    fingerprint: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.sans:
            raise ValueError("certificate must carry at least one SAN")
        if self.common_name not in self.sans:
            raise ValueError("common name must appear among the SANs")
        if self.not_after < self.not_before:
            raise ValueError("certificate expires before it is issued")
        if not self.fingerprint:
            digest = hashlib.sha256(
                "|".join(
                    (
                        str(self.serial),
                        self.common_name,
                        ",".join(self.sans),
                        self.issuer,
                        self.not_before.isoformat(),
                        self.not_after.isoformat(),
                        str(self.key_id),
                    )
                ).encode()
            ).hexdigest()
            object.__setattr__(self, "fingerprint", digest)

    @property
    def validity_days(self) -> int:
        return (self.not_after - self.not_before).days

    def valid_on(self, day: date) -> bool:
        return self.not_before <= day <= self.not_after

    def days_until_expiry(self, day: date) -> int:
        return (self.not_after - day).days

    def issued_within(self, day: date, days: int) -> bool:
        """Was this certificate issued within ``days`` days of ``day``?"""
        return abs((day - self.not_before).days) <= days

    def __str__(self) -> str:
        return (
            f"Certificate({self.common_name}, issuer={self.issuer}, "
            f"{self.not_before.isoformat()}..{self.not_after.isoformat()})"
        )


def rollover_of(cert: Certificate, serial: int, overlap_days: int = 14) -> Certificate:
    """Build the natural renewal of ``cert``: same names, fresh validity.

    Used by the benign world to model pattern S2 (certificate rollover on
    expiry within a stable deployment).
    """
    start = cert.not_after - timedelta(days=overlap_days)
    return Certificate(
        serial=serial,
        common_name=cert.common_name,
        sans=cert.sans,
        issuer=cert.issuer,
        not_before=start,
        not_after=start + timedelta(days=cert.validity_days),
        validation=cert.validation,
        crtsh_id=0,
        key_id=cert.key_id + 1,
    )


def certificate_to_dict(cert: Certificate) -> dict[str, Any]:
    """The certificate as a JSON-safe dict (its fingerprint is derived)."""
    return {
        "serial": cert.serial,
        "cn": cert.common_name,
        "sans": list(cert.sans),
        "issuer": cert.issuer,
        "not_before": cert.not_before.isoformat(),
        "not_after": cert.not_after.isoformat(),
        "validation": cert.validation.name,
        "crtsh_id": cert.crtsh_id,
        "key_id": cert.key_id,
    }


def certificate_from_dict(data: dict[str, Any]) -> Certificate:
    """The certificate :func:`certificate_to_dict` describes."""
    return Certificate(
        serial=data["serial"],
        common_name=data["cn"],
        sans=tuple(data["sans"]),
        issuer=data["issuer"],
        not_before=date.fromisoformat(data["not_before"]),
        not_after=date.fromisoformat(data["not_after"]),
        validation=ValidationLevel[data["validation"]],
        crtsh_id=data["crtsh_id"],
        key_id=data["key_id"],
    )
