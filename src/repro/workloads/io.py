"""Trace persistence: save/load workload traces as compact ``.npz`` files.

Synthetic traces are cheap to regenerate, but persisting them matters for
two workflows: pinning the *exact* trace a result came from (artifact
style), and importing externally captured address streams (e.g. converted
GPGPU-Sim or binary-instrumentation traces) into the simulator.

Format: a NumPy ``.npz`` archive with three aligned arrays - ``addrs``
(uint64 CXL byte addresses), ``writes`` (uint8 flags), ``sms`` (uint16
issuing-SM ids) - plus a metadata record (name, footprint, compute/mem,
format version). numpy is imported only when a trace is saved or loaded,
so a run that never touches ``.npz`` files does not load it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..errors import TraceError
from ..memsys.request import Access, MemoryRequest
from .trace import Trace

FORMAT_VERSION = 1


def save_trace(trace: Trace, path: Union[str, Path]) -> Path:
    """Write a trace to ``path`` (``.npz``); returns the resolved path."""
    import numpy as np

    path = Path(path)
    if not trace.requests:
        raise TraceError("refusing to save an empty trace")
    addrs = np.fromiter(
        (r.cxl_addr for r in trace.requests), dtype=np.uint64, count=len(trace)
    )
    writes = np.fromiter(
        (1 if r.is_write else 0 for r in trace.requests),
        dtype=np.uint8, count=len(trace),
    )
    sms = np.fromiter(
        (r.sm for r in trace.requests), dtype=np.uint16, count=len(trace)
    )
    meta = json.dumps(
        {
            "version": FORMAT_VERSION,
            "name": trace.name,
            "footprint_pages": trace.footprint_pages,
            "compute_per_mem": trace.compute_per_mem,
        }
    )
    np.savez_compressed(
        path, addrs=addrs, writes=writes, sms=sms,
        meta=np.frombuffer(meta.encode(), dtype=np.uint8),
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_trace(path: Union[str, Path]) -> Trace:
    """Load a trace previously written by :func:`save_trace`."""
    import numpy as np

    path = Path(path)
    try:
        archive = np.load(path)
    except (OSError, ValueError) as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc
    try:
        meta = json.loads(bytes(archive["meta"]).decode())
        addrs = archive["addrs"]
        writes = archive["writes"]
        sms = archive["sms"]
    except KeyError as exc:
        raise TraceError(f"{path} is not a repro trace file (missing {exc})") from exc
    if meta.get("version") != FORMAT_VERSION:
        raise TraceError(
            f"{path}: unsupported trace format version {meta.get('version')}"
        )
    if not (len(addrs) == len(writes) == len(sms)):
        raise TraceError(f"{path}: corrupt trace (array lengths differ)")
    requests = [
        MemoryRequest(
            cxl_addr=int(addr),
            access=Access.WRITE if flag else Access.READ,
            sm=int(sm),
        )
        for addr, flag, sm in zip(addrs, writes, sms)
    ]
    return Trace(
        name=meta["name"],
        footprint_pages=meta["footprint_pages"],
        compute_per_mem=meta["compute_per_mem"],
        requests=requests,
    )
