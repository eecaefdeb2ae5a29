"""Exceptions, check reports, the check-report document and the canonical
JSON text, shared across the package."""

from __future__ import annotations


class CheckReport:
    """Outcome of a single verification step.

    `details` and `witness` must stay JSON-serializable so reports can be
    emitted verbatim by the CLI.  Reports compare by value and are not
    hashable; each report without explicit `details` gets a fresh dict.
    """

    def __init__(self, name: str, passed: bool, details: dict | None = None, witness=None):
        self.name = name
        self.passed = passed
        self.details = {} if details is None else details
        self.witness = witness

    def _fields(self) -> tuple:
        return (self.name, self.passed, self.details, self.witness)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable and compared by value

    def __repr__(self):
        return (
            f"{self.__class__.__qualname__}(name={self.name!r}, passed={self.passed!r}, "
            f"details={self.details!r}, witness={self.witness!r})"
        )

    def as_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "details": self.details}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def report_to_dict(reports, meta: dict) -> dict:
    """The orbitcodes.verify.v1 document of `reports`, with the keys of
    `meta` added."""
    out = {
        "schema": "orbitcodes.verify.v1",
        "passed": all(r.passed for r in reports),
        "checks": [r.as_dict() for r in reports],
    }
    out.update(meta)
    return out


class OrbitCodesError(Exception):
    """Base class for all package-level failures."""


class PreconditionError(OrbitCodesError):
    """Raised when inputs fall outside the supported parameter range.

    Carries a machine-readable `kind` so callers (and the CLI exit path)
    can distinguish usage problems from failed mathematical checks.
    """

    def __init__(self, kind: str, message: str, details: dict | None = None):
        super().__init__(message)
        self.kind = kind
        self.details = details or {}


class CheckFailure(OrbitCodesError):
    """Raised when a verification step fails on otherwise valid inputs."""

    def __init__(self, report: CheckReport):
        super().__init__(f"check '{report.name}' failed: {report.details}")
        self.report = report


def dumps(doc: dict) -> str:
    """The canonical JSON text of a document: sorted keys, fixed separators
    and a final newline, so a given configuration always gives the same
    bytes.  json is imported here, on first use, so that `--help` and the
    usage checks, which import this module, load no json."""
    import json

    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
