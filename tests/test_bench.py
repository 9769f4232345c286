"""Structural checks on the microbenchmark harness (no timing assertions
beyond the post-seal probe, which is exact)."""

import json

import pytest

from ipcconfine.bench import BenchConfig, OPTIMIZED_PATHS, run_bench
from ipcconfine.errors import InvalidConfig


SMALL = BenchConfig(long_list_size=64, batch_size=32, batches=3)


class TestConfig:
    def test_defaults_pass(self):
        BenchConfig().check()

    @pytest.mark.parametrize("kwargs", [
        {"long_list_size": 0},
        {"batch_size": 0},
        {"batches": 0},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(InvalidConfig):
            BenchConfig(**kwargs).check()


class TestRun:
    def test_paths_and_shape(self):
        result = run_bench(SMALL)
        assert set(result.paths) == {"baseline", *OPTIMIZED_PATHS}
        for stats in result.paths.values():
            assert stats["median_ns"] > 0
            assert stats["min_ns"] <= stats["median_ns"] <= stats["mean_ns"] * 3
            assert stats["batches"] == 3
        assert result.ratios["baseline"] == 1.0

    def test_post_seal_probe_reads_nothing(self):
        result = run_bench(SMALL)
        assert result.post_seal_long_list_reads == 0

    def test_reference_path_optional(self):
        result = run_bench(BenchConfig(long_list_size=64, batch_size=16,
                                       batches=2, include_reference=True))
        assert "reference_scan" in result.paths

    def test_json_and_text_render(self):
        result = run_bench(SMALL)
        data = json.loads(result.to_json())
        assert data["config"] == {"long_list_size": 64, "batch_size": 32, "batches": 3,
                                  "short_warm_count": 16, "global_pool": 8}
        assert data["post_seal_long_list_reads"] == 0
        assert data["long_list_structure"]["exact"] == "hash set"
        text = result.text()
        for path in OPTIMIZED_PATHS:
            assert path in text

    def test_batch_size_clamped_to_list(self):
        result = run_bench(BenchConfig(long_list_size=8, batch_size=500, batches=2))
        assert result.paths["long_hit"]["median_ns"] > 0


class TestCollectCounters:
    def test_detached_snapshot(self, engine):
        from ipcconfine.model import Intent, PORT, ProcessRef, VmId
        snap = engine.counters.copy()
        assert snap == engine.counters and snap is not engine.counters
        engine.resolve(ProcessRef(5, VmId(1)), r"\a\b", PORT, Intent.OPEN)
        assert snap.resolves_total == 0
        assert engine.counters.copy().resolves_total == 1
