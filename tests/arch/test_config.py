"""Tests for device configurations."""

import pytest

from repro.arch.config import (
    GTX480,
    GTX480_HALF_RF,
    ISSUE_ENGINES,
    GpuConfig,
    fermi_like,
)


class TestGtx480:
    def test_paper_parameters(self):
        """§IV: 15 SMs, 128 KB register file per SM, 2 schedulers, 48 warps."""
        assert GTX480.num_sms == 15
        assert GTX480.registers_per_sm == 32 * 1024   # 128 KB of 32-bit regs
        assert GTX480.num_schedulers == 2
        assert GTX480.max_warps_per_sm == 48
        assert GTX480.scheduler_policy == "gto"

    def test_warp_register_packs(self):
        """§III-B2: 32K registers / 32 lanes = 1K register packs."""
        assert GTX480.warp_register_packs == 1024

    def test_half_register_file(self):
        assert GTX480_HALF_RF.registers_per_sm == 16 * 1024
        assert GTX480_HALF_RF.num_sms == GTX480.num_sms
        assert "half" in GTX480_HALF_RF.name.lower()

    def test_with_scheduler(self):
        lrr = GTX480.with_scheduler("lrr")
        assert lrr.scheduler_policy == "lrr"
        assert GTX480.scheduler_policy == "gto"  # original untouched


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"warp_size": 0},
        {"num_sms": 0},
        {"max_warps_per_sm": 0},
        {"registers_per_sm": 0},
        {"scheduler_policy": "magic"},
        {"l1_hit_rate": 1.5},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            fermi_like(**kwargs)

    def test_fermi_like_overrides(self):
        cfg = fermi_like(num_sms=4, dram_latency=100)
        assert cfg.num_sms == 4
        assert cfg.dram_latency == 100
        assert cfg.max_warps_per_sm == GTX480.max_warps_per_sm


class TestIssueEngine:
    def test_engines_are_the_reference_and_the_fast_path(self):
        assert ISSUE_ENGINES == ("scan", "columnar")

    def test_default_engine_is_columnar(self, monkeypatch):
        monkeypatch.delenv("REPRO_ISSUE_ENGINE", raising=False)
        assert GpuConfig().issue_engine == "columnar"

    def test_env_hook_selects_the_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_ISSUE_ENGINE", "scan")
        assert GpuConfig().issue_engine == "scan"

    @pytest.mark.parametrize("retired", ["event", "native"])
    def test_retired_engine_names_rejected(self, retired):
        with pytest.raises(ValueError, match="unknown issue engine"):
            fermi_like(issue_engine=retired)
