"""Memory request types flowing through the simulated hierarchy."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Access(enum.Enum):
    """Direction of a memory access."""

    READ = "read"
    WRITE = "write"

    @property
    def is_write(self) -> bool:
        return self is Access.WRITE


@dataclass(frozen=True)
class MemoryRequest:
    """One post-L1 sector access issued by an SM warp.

    ``cxl_addr`` is a byte address in the permanent CXL (home) address space,
    already aligned to a sector by the trace layer. ``sm`` and ``warp``
    identify the issuing context for latency-hiding bookkeeping. ``tenant``
    names the security domain that issued the request; under partitioning
    the request loop treats ``sm`` as a tenant-local hint and enforces that
    the address lies inside the tenant's page span.
    """

    cxl_addr: int
    access: Access
    sm: int = 0
    warp: int = 0
    tenant: int = 0

    @property
    def is_write(self) -> bool:
        return self.access.is_write
