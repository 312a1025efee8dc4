"""Tests for the Table II hardware catalog."""

import pytest

from repro.hardware.catalog import (
    HardwareCatalog,
    HardwareKind,
    HardwareSpec,
    TABLE_II,
    default_catalog,
)


class TestTableII:
    def test_six_worker_shapes(self, catalog):
        assert len(catalog) == 6

    def test_paper_prices(self, catalog):
        assert catalog.get("p3.2xlarge").price_per_hour == 3.06
        assert catalog.get("p2.xlarge").price_per_hour == 0.90
        assert catalog.get("g3s.xlarge").price_per_hour == 0.75
        assert catalog.get("c6i.4xlarge").price_per_hour == 0.68
        assert catalog.get("c6i.2xlarge").price_per_hour == 0.34
        assert catalog.get("m4.xlarge").price_per_hour == 0.20

    def test_paper_memory_sizes(self, catalog):
        assert catalog.get("p3.2xlarge").memory_gb == 16.0
        assert catalog.get("p2.xlarge").memory_gb == 12.0
        assert catalog.get("g3s.xlarge").memory_gb == 8.0

    def test_kinds(self, catalog):
        assert catalog.get("p3.2xlarge").is_gpu
        assert not catalog.get("m4.xlarge").is_gpu

    def test_v100_is_fastest(self, catalog):
        v100 = catalog.get("p3.2xlarge")
        assert all(s.speed_factor <= v100.speed_factor for s in catalog)

    def test_m60_outranks_k80(self, catalog):
        # Maxwell beats Kepler for inference despite the lower price.
        assert catalog.get("g3s.xlarge").perf_rank < catalog.get("p2.xlarge").perf_rank

    def test_price_per_second(self, v100):
        assert v100.price_per_second == pytest.approx(3.06 / 3600.0)


class TestCatalogQueries:
    def test_by_cost_ascending(self, catalog):
        prices = [s.price_per_hour for s in catalog.by_cost()]
        assert prices == sorted(prices)

    def test_gpus_and_cpus_partition(self, catalog):
        gpus = {s.name for s in catalog.gpus()}
        cpus = {s.name for s in catalog if not s.is_gpu}
        assert gpus == {s.name for s in catalog if s.is_gpu}
        assert gpus | cpus == set(catalog.names()) and cpus

    def test_most_performant_gpu_is_v100(self, catalog):
        assert catalog.most_performant_gpu().name == "p3.2xlarge"

    def test_restricted_subset(self, catalog):
        sub = catalog.restricted(["p3.2xlarge", "g3s.xlarge"])
        assert len(sub) == 2
        assert "p2.xlarge" not in sub

    def test_unknown_name_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.get("nonexistent")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            HardwareCatalog([TABLE_II[0], TABLE_II[0]])

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            HardwareCatalog([])

    def test_contains(self, catalog):
        assert "g3s.xlarge" in catalog
        assert "foo" not in catalog
