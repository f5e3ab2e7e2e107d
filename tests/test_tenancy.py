"""Tenancy layer: security-domain partition math, isolation, equivalence.

Three layers of guarantees, mirroring ``test_topology.py``:

* **Config validation** - :class:`~repro.config.PartitionConfig` and
  ``SystemConfig.with_tenants`` reject partitions that do not align with
  the GPC/channel geometry, and a partition change changes the config
  fingerprint (the cache key).
* **Partition-math properties** (Hypothesis) - for any valid tenant count
  the :class:`~repro.address.TenantMap` splits SMs, channels, pages and
  devices into *disjoint, covering* partitions.
* **Isolation and behavior preservation** - multi-tenant runs use
  physically distinct metadata planes and key domains, cross-tenant
  requests raise :class:`~repro.errors.IsolationError`, and an explicit
  1-tenant partition reproduces the recorded ``BENCH_perf.json``
  fingerprints bit-identically. The exact error messages and 2-tenant
  run fingerprints are pinned in ``test_request_path.py``.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.address import DEFAULT_GEOMETRY, TenantMap
from repro.config import PartitionConfig, SystemConfig
from repro.errors import ConfigError, IsolationError
from repro.harness.runner import run_model
from repro.memsys.request import Access, MemoryRequest
from repro.security.fabric import MemoryFabric
from repro.sim.stats import StatRegistry
from repro.workloads import build_trace
from repro.workloads.trace import Trace

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The bench() compute/memory geometry the partition divides.
BENCH_SMS, BENCH_GPCS, BENCH_CHANNELS = 16, 4, 16


# ---------------------------------------------------------------- validation
class TestPartitionConfig:
    def test_default_is_single_tenant(self):
        assert SystemConfig.bench().partition.num_tenants == 1

    def test_with_tenants(self):
        cfg = SystemConfig.bench().with_tenants(2)
        assert cfg.partition.num_tenants == 2
        # A partition change must change the config fingerprint (cache key).
        assert cfg.fingerprint() != SystemConfig.bench().fingerprint()

    def test_rejects_zero_tenants(self):
        with pytest.raises(ConfigError):
            PartitionConfig(num_tenants=0)

    def test_rejects_non_dividing_tenant_count(self):
        # 3 divides neither the 4 GPCs nor the 16 channels of bench().
        with pytest.raises(ConfigError):
            SystemConfig.bench().with_tenants(3)

    def test_rejects_more_tenants_than_gpcs(self):
        with pytest.raises(ConfigError):
            SystemConfig.bench().with_tenants(8)


# ---------------------------------------------------------- partition math
@st.composite
def tenant_maps(draw):
    num_tenants = draw(st.sampled_from([1, 2, 4]))
    num_devices = draw(st.integers(min_value=1, max_value=4))
    total_pages = draw(st.integers(min_value=num_tenants, max_value=2048))
    return TenantMap(
        geometry=DEFAULT_GEOMETRY,
        num_tenants=num_tenants,
        total_pages=total_pages,
        num_sms=BENCH_SMS,
        num_gpcs=BENCH_GPCS,
        num_channels=BENCH_CHANNELS,
        num_devices=num_devices,
    )


class TestTenantMapProperties:
    @given(tmap=tenant_maps())
    @settings(max_examples=60, deadline=None)
    def test_page_partition_total_and_exact(self, tmap):
        """Every page has exactly one owner, and pages_of counts agree."""
        counts = Counter(
            tmap.tenant_of_page(p) for p in range(tmap.total_pages)
        )
        for tenant, count in counts.items():
            assert 0 <= tenant < tmap.num_tenants
        assert sum(
            tmap.pages_of(t) for t in range(tmap.num_tenants)
        ) == tmap.total_pages
        for t in range(tmap.num_tenants):
            assert tmap.pages_of(t) == counts.get(t, 0)

    @given(tmap=tenant_maps())
    @settings(max_examples=40, deadline=None)
    def test_page_spans_are_contiguous(self, tmap):
        """A tenant's pages form one contiguous run starting at page_base."""
        for t in range(tmap.num_tenants):
            span = tmap.pages_of(t)
            base = tmap.page_base(t)
            for p in range(base, base + span):
                assert tmap.tenant_of_page(p) == t

    @given(tmap=tenant_maps())
    @settings(max_examples=60, deadline=None)
    def test_sm_partition_disjoint_and_covering(self, tmap):
        """sm_slot confines each tenant to its own SM group; groups tile
        the whole SM array with no overlap."""
        groups = []
        for t in range(tmap.num_tenants):
            slots = {tmap.sm_slot(t, hint) for hint in range(2 * tmap.num_sms)}
            expected = set(
                range(tmap.sm_base(t), tmap.sm_base(t) + tmap.sms_per_tenant)
            )
            assert slots == expected
            groups.append(slots)
        union = set().union(*groups)
        assert union == set(range(tmap.num_sms))
        assert sum(len(g) for g in groups) == tmap.num_sms  # disjoint

    @given(tmap=tenant_maps())
    @settings(max_examples=60, deadline=None)
    def test_channel_partition_disjoint_and_covering(self, tmap):
        runs = [set(tmap.channels_of(t)) for t in range(tmap.num_tenants)]
        assert set().union(*runs) == set(range(tmap.num_channels))
        assert sum(len(r) for r in runs) == tmap.num_channels

    @given(tmap=tenant_maps())
    @settings(max_examples=60, deadline=None)
    def test_device_partition(self, tmap):
        subsets = [set(tmap.devices_of(t)) for t in range(tmap.num_tenants)]
        if tmap.devices_shared:
            # Indivisible device count: every tenant sees every device
            # (links shared; per-tenant metadata planes still isolated).
            for s in subsets:
                assert s == set(range(tmap.num_devices))
        else:
            assert set().union(*subsets) == set(range(tmap.num_devices))
            assert sum(len(s) for s in subsets) == tmap.num_devices


# ------------------------------------------------------------- isolation
def _cross_tenant_trace(tenant: int, footprint_pages: int = 64) -> Trace:
    """One request from ``tenant`` aimed at tenant 0's first page."""
    req = MemoryRequest(cxl_addr=0, access=Access.READ, sm=0, warp=0,
                       tenant=tenant)
    return Trace(name="cross", footprint_pages=footprint_pages,
                 compute_per_mem=0, requests=[req])


class TestIsolation:
    def test_planes_are_distinct_objects(self):
        """Each (tenant, device) security plane owns its own metadata
        caches; no cache structure is shared across planes."""
        cfg = SystemConfig.bench().with_tenants(2).with_cxl_devices(2)
        fabric = MemoryFabric(cfg, 256, StatRegistry())
        planes = fabric.cxl_meta_by_plane
        assert len(planes) == 2 * 2
        assert len({id(p) for p in planes}) == len(planes)

    def test_key_domains_differ_per_tenant(self):
        cfg = SystemConfig.bench().with_tenants(2)
        fabric = MemoryFabric(cfg, 256, StatRegistry())
        k0, k1 = fabric.keys_by_tenant
        assert k0.mac_key != k1.mac_key
        assert k0.encryption_key != k1.encryption_key

    def test_single_tenant_keys_unchanged(self):
        """At 1 tenant the key domain is the historical platform KeySet."""
        cfg = SystemConfig.bench()
        fabric = MemoryFabric(cfg, 256, StatRegistry())
        assert len(fabric.keys_by_tenant) == 1

    def test_cross_tenant_request_raises(self):
        cfg = SystemConfig.bench().with_tenants(2)
        trace = _cross_tenant_trace(tenant=1)
        with pytest.raises(IsolationError):
            run_model(cfg, trace, "salus")

    def test_invalid_tenant_id_raises(self):
        cfg = SystemConfig.bench().with_tenants(2)
        trace = _cross_tenant_trace(tenant=5)
        with pytest.raises(IsolationError):
            run_model(cfg, trace, "salus")

    def test_tenant_metrics_partition_the_totals(self):
        """tenant<t>.* namespaces appear, and per-tenant instruction and
        migration tallies sum to the machine-wide ones."""
        cfg = SystemConfig.bench().with_tenants(2)
        trace = build_trace("nw", n_accesses=1_200, seed=7,
                            num_sms=cfg.gpu.num_sms, tenants=2)
        result = run_model(cfg, trace, "salus")
        m = result.metrics
        for t in (0, 1):
            assert f"tenant{t}.instructions" in m
            assert f"tenant{t}.fills" in m
        assert (m["tenant0.instructions"] + m["tenant1.instructions"]
                == result.stats.instructions)
        assert (m["tenant0.fills"] + m["tenant1.fills"] == result.fills)
        assert (m["tenant0.evictions"] + m["tenant1.evictions"]
                == result.evictions)


# ---------------------------------------------------- behavior preservation
def _load_bench_perf_module():
    spec = importlib.util.spec_from_file_location(
        "bench_perf", REPO_ROOT / "scripts" / "bench_perf.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSingleTenantPreservation:
    def test_explicit_one_tenant_is_bit_identical(self):
        """with_tenants(1) == the default whole-machine config, run for
        run."""
        base = SystemConfig.bench()
        explicit = base.with_tenants(1)
        trace = build_trace(
            "backprop", n_accesses=1_500, seed=7, num_sms=base.gpu.num_sms
        )
        for model in ("nosec", "baseline", "salus"):
            a = run_model(base, trace, model)
            b = run_model(explicit, trace, model)
            assert a.fingerprint() == b.fingerprint()

    def test_quick_sweep_reproduces_recorded_fingerprints(self):
        """The tenancy refactor rides under the established fingerprint
        gate: the quick sweep (now built through an explicit 1-tenant
        partition) must still equal the fingerprints recorded in
        BENCH_perf.json before tenancy existed."""
        bench_perf = _load_bench_perf_module()
        store = bench_perf.load_store(REPO_ROOT / "BENCH_perf.json")
        spec = bench_perf.sweep_spec(quick=True)
        ref = bench_perf.find_entry(store, spec["name"], "baseline")
        assert ref is not None, "BENCH_perf.json lacks the quick/baseline entry"
        jobs, _results = bench_perf.run_sweep(spec)
        assert set(jobs) == set(ref["jobs"])
        for label, job in jobs.items():
            assert job["fingerprint"] == ref["jobs"][label]["fingerprint"], (
                f"{label}: fingerprint diverged from recorded baseline"
            )
