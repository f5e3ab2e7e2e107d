"""Exception hierarchy for the Salus reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause. Security-relevant
failures (integrity, freshness) get dedicated subclasses because callers are
expected to treat them as attack evidence rather than programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class AddressError(ReproError):
    """An address is out of range or violates an alignment requirement."""


class SecurityError(ReproError):
    """Base class for security-guarantee violations."""


class IntegrityError(SecurityError):
    """A MAC check failed: data or metadata was tampered with in memory."""


class FreshnessError(SecurityError):
    """A Merkle-tree check failed: stale (replayed) data or counters."""


class CounterOverflowError(SecurityError):
    """An encryption counter cannot be incremented without OTP reuse.

    The functional layer raises this instead of silently wrapping, because a
    wrapped counter with an unchanged key would repeat a one-time pad.
    """


class SimulationError(ReproError):
    """The timing simulator reached an inconsistent internal state."""


class TraceError(ReproError):
    """A workload trace is malformed or references an unmapped address."""


class IsolationError(TraceError):
    """A request crossed its tenant's partition boundary.

    Raised by the request loop (``GpuSim.run``) when a trace record
    addresses a page outside the issuing tenant's memory partition. Subclassing
    :class:`TraceError` keeps existing trace-validation handlers working
    while letting multi-tenant callers treat the violation as attack
    evidence.
    """


class EngineError(ReproError):
    """One or more jobs of an experiment batch failed to execute."""

