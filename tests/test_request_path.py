"""Recorded goldens for the request path in ``GpuSim.run``.

Every fingerprint below was recorded from the simulator before the request
loop was rewritten, so a change that alters any simulated transition - an
SM clock, a mapping/L2 LRU move, a hit tally, a channel booking - fails here
by name. The cases cover the three security models, 1/2/4 CXL devices,
migration-heavy traces, chunk fill granularity, the 2-tenant ``mirror`` and
``noisy`` mixes, and a fixed list of generated workload shapes. The error
cases pin the ``TraceError``/``IsolationError`` messages and the partial
progress left behind when a run stops on a bad request.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.errors import IsolationError, TraceError
from repro.gpu.gpusim import GpuSim
from repro.harness.runner import model_factory, run_model
from repro.memsys.request import Access, MemoryRequest
from repro.workloads.generators import WorkloadSpec, generate_trace
from repro.workloads.suite import build_trace
from repro.workloads.trace import Trace

SMALL = SystemConfig.small()


def _suite(config, bench, accesses, seed, model, **trace_kw):
    return config, build_trace(bench, n_accesses=accesses, seed=seed,
                               num_sms=config.gpu.num_sms, **trace_kw), model


def _generated(model, seed, **spec_kw):
    spec = WorkloadSpec(name="keq", **spec_kw)
    trace = generate_trace(spec, 900, seed=seed, num_sms=SMALL.gpu.num_sms)
    return SMALL, trace, model


_CHUNK = SystemConfig.small(gpu=replace(SMALL.gpu, fill_granularity="chunk"))
_TENANTS2 = SystemConfig.bench().with_tenants(2)

#: ``id -> (config, trace, model)`` builders for every pinned run.
CASES = {
    **{f"models-{m}": (lambda m=m: _suite(SMALL, "backprop", 1500, 7, m))
       for m in ("nosec", "baseline", "salus")},
    **{f"devices{d}-{m}": (
        lambda d=d, m=m: _suite(SMALL.with_cxl_devices(d), "kmeans", 1200, 11, m))
       for d in (1, 2, 4) for m in ("nosec", "salus")},
    **{f"migration-{m}": (lambda m=m: _suite(SMALL, "bfs", 2000, 3, m))
       for m in ("nosec", "baseline", "salus")},
    "chunk-fill-salus": lambda: _suite(_CHUNK, "backprop", 1200, 7, "salus"),
    **{f"tenants2-{mix}-{m}": (
        lambda mix=mix, m=m: _suite(_TENANTS2, "kmeans", 1200, 7, m,
                                    tenants=2, tenant_mix=mix))
       for mix in ("mirror", "noisy") for m in ("baseline", "salus")},
    "gen-stream-nosec": lambda: _generated(
        "nosec", 0, footprint_pages=48, chunk_coverage=0.15, concurrent_pages=1,
        write_fraction=0.0, sectors_per_chunk_touched=2, reuse=1,
        compute_per_mem=0, page_order="stream"),
    "gen-tiled-baseline": lambda: _generated(
        "baseline", 1, footprint_pages=96, chunk_coverage=0.5, concurrent_pages=6,
        write_fraction=0.3, sectors_per_chunk_touched=5, reuse=2,
        compute_per_mem=4, page_order="tiled"),
    "gen-zipf-salus": lambda: _generated(
        "salus", 2, footprint_pages=160, chunk_coverage=1.0, concurrent_pages=12,
        write_fraction=0.6, sectors_per_chunk_touched=8, reuse=3,
        compute_per_mem=8, page_order="zipf"),
    "gen-stream-salus": lambda: _generated(
        "salus", 3, footprint_pages=160, chunk_coverage=0.35, concurrent_pages=3,
        write_fraction=0.45, sectors_per_chunk_touched=3, reuse=1,
        compute_per_mem=2, page_order="stream"),
    "gen-zipf-baseline": lambda: _generated(
        "baseline", 4, footprint_pages=48, chunk_coverage=0.8, concurrent_pages=9,
        write_fraction=0.1, sectors_per_chunk_touched=7, reuse=3,
        compute_per_mem=1, page_order="zipf"),
    "gen-tiled-nosec": lambda: _generated(
        "nosec", 2, footprint_pages=96, chunk_coverage=0.65, concurrent_pages=4,
        write_fraction=0.55, sectors_per_chunk_touched=4, reuse=2,
        compute_per_mem=6, page_order="tiled"),
}

GOLDEN = {
    "chunk-fill-salus": "34dc559284f4544a5aee9a73cf559691211cdfbb6676869568aad6c7592bcc12",
    "devices1-nosec": "65caf5da17f487fe2f29bf2f16935644b3b685f058aed216abcf1205f701f1d5",
    "devices1-salus": "03f85a3a64b1a156c98f946301ed6d6f7c4ec717a9028a0ee29cb70fffc82b69",
    "devices2-nosec": "3e8bf8ef308ba5864922c08c3cca6018b72bed6e5a2737f5f7802aeb8520f853",
    "devices2-salus": "7c47fc71375f5a90527dcbc0696609266b55926728fa95f000d96453d3849f65",
    "devices4-nosec": "75a067865a6c7b011c8ce4fb4daeb34b898214a38ac65e7066ba0f753f37cd1a",
    "devices4-salus": "bd58806fbf7c8b5db2e7467d1daa9cdc6ac47931863a51ac05893ce3bb3cb902",
    "gen-stream-nosec": "a43d4ad1c0a7e882b2c98e0ac8846615b14dc4568aa702f07b716c4fc978a9d7",
    "gen-stream-salus": "2f470e3496d09c0c75042f167b2205305b13104e28433bd5375fc2a6afaf002f",
    "gen-tiled-baseline": "485487444e36e7772d64b9bc3537967f41d900b81dc60b769a6b05219ea1a7f1",
    "gen-tiled-nosec": "42c31ddf0a8660daad30a8b2f206dbf14d2e45b6b671a3f6d347a6429c81c7b2",
    "gen-zipf-baseline": "03e47f03283592a0a1428baae6f65bce85b04567235b9b11744a0b48a96a892c",
    "gen-zipf-salus": "80b63e5c2be017f0bec03b95b8b3a6689d77e682fcba14dcdceed2c322ade62c",
    "migration-baseline": "f4642ce8f75b0789fc4d3783d225585154673cd29b02380b12f4e6430b6ec8bf",
    "migration-nosec": "4a10b8edacde4c2eb32b6de67845c976a663a66778be350b114e523f782b6e07",
    "migration-salus": "2eaa5a1e351dfcf266d3a6f01c6946e9e9d073051a33b75fb8fb3433dd553c5a",
    "models-baseline": "b32c34ebcc76e445a4af642c21b4d2065acaf7f685d47ba6d8fefd6ca10c236c",
    "models-nosec": "0fe20f9191e33cafd0f53c7b47619fa0c5c9f9250c2894ce938ffd1a7b043337",
    "models-salus": "0cd2a116f01165e51fcfe3b2449c75a1457da95722a0eecd23cc375fbcadb410",
    "tenants2-mirror-baseline": "158cc7247f1f600f0fd6e221cb9c5032beafec6c71633b2dac5b6e44305c70e1",
    "tenants2-mirror-salus": "078e1b2b0fbe5fbd02ffdc6ac70c17816c3ce755d62960be55dd2d85bc2699d0",
    "tenants2-noisy-baseline": "de738ba708e2e054d7b698f0926d559dba47aac45fe4dc8d5de48dc2c49c72d5",
    "tenants2-noisy-salus": "148ac15c888356ad5c2e8433b189c8231d85b242ec9b2a2e7bb74fc73af32944",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_golden(case):
    config, trace, model = CASES[case]()
    assert run_model(config, trace, model).fingerprint() == GOLDEN[case]


def test_every_case_has_a_golden():
    assert set(GOLDEN) == set(CASES)


# -- trace fingerprints -------------------------------------------------------

TRACE_GOLDEN = {
    "nw-1tenant": "8837619df55dad9b9f42c77692dc33470c921b235eaf6dee7b0fa51a1d075c25",
    "kmeans-2tenant": "1a168982b9480d2d402d2d8feeaae93a6946140c761b5aacbbd77c10bea2a5f2",
}


def test_trace_fingerprints_are_stable():
    """Result-cache and ledger keys embed these; they must never re-key."""
    one = build_trace("nw", n_accesses=700, seed=3, num_sms=SMALL.gpu.num_sms)
    two = build_trace("kmeans", n_accesses=1200, seed=7,
                      num_sms=_TENANTS2.gpu.num_sms, tenants=2,
                      tenant_mix="mirror")
    assert one.fingerprint() == TRACE_GOLDEN["nw-1tenant"]
    assert two.fingerprint() == TRACE_GOLDEN["kmeans-2tenant"]


def test_run_does_not_import_numpy():
    """numpy is loaded only to save or load ``.npz`` traces."""
    code = (
        "import sys\n"
        "from repro.config import SystemConfig\n"
        "from repro.harness.runner import run_model\n"
        "from repro.workloads import build_trace\n"
        "cfg = SystemConfig.small()\n"
        "trace = build_trace('nw', n_accesses=300, seed=1, num_sms=cfg.gpu.num_sms)\n"
        "run_model(cfg, trace, 'salus')\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


# -- error paths --------------------------------------------------------------

def _req(addr, tenant=0, sm=0, warp=0, write=False):
    return MemoryRequest(cxl_addr=addr, access=Access.WRITE if write else Access.READ,
                         sm=sm, warp=warp, tenant=tenant)


def _raise_on(config, pages, requests, error):
    """Run ``requests`` until ``error``; return (message, SM instructions,
    interconnect requests) as left behind by the partial run."""
    sim = GpuSim(config, pages, model_factory("salus"))
    trace = Trace(name="bad", footprint_pages=pages, compute_per_mem=1,
                  requests=requests)
    with pytest.raises(error) as err:
        sim.run(trace, compute_per_mem=trace.compute_per_mem)
    return (str(err.value), [sm.instructions for sm in sim.sms],
            sim.interconnect.requests)


def _prefix(tenant=0, base=0):
    sector = SMALL.geometry.sector_bytes
    return [_req(base + i * 5 * sector, tenant=tenant, sm=i, warp=i,
                 write=i % 3 == 0) for i in range(7)]


ERROR_GOLDEN = {
    "trace": ('trace address 0xe8d4a51000 outside footprint of 32768 bytes', [4, 4, 4, 2], 7),
    "isolation-1": ("tenant 1 request for address 0x0 crosses into tenant 0's pages", [2, 2, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2, 2, 2, 2, 0], 14),
    "isolation-5": ('request tenant 5 outside partition of 2 tenants', [2, 2, 2, 2, 2, 2, 2, 0, 2, 2, 2, 2, 2, 2, 2, 0], 14),
}


def test_trace_error_message_and_partial_progress():
    got = _raise_on(SMALL, 8, _prefix() + [_req(10**12), _req(0)], TraceError)
    assert got == ERROR_GOLDEN["trace"]


@pytest.mark.parametrize("tenant", [1, 5])
def test_isolation_error_message_and_partial_progress(tenant):
    pages = 64
    tenant1_base = (pages // 2) * _TENANTS2.geometry.page_bytes
    reqs = (_prefix(tenant=0) + _prefix(tenant=1, base=tenant1_base)
            + [_req(0, tenant=tenant), _req(0)])
    got = _raise_on(_TENANTS2, pages, reqs, IsolationError)
    assert got == ERROR_GOLDEN[f"isolation-{tenant}"]
