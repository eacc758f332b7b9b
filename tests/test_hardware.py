"""Tests for the kernel counters, the MPU emulator oracle, the
architecture specs and the cost model."""

import numpy as np
import pytest

from repro.hardware.counters import KernelCounters, PhaseCounters
from repro.hardware.cost_model import CostModel, KernelTiming
from repro.hardware.spec import LX2_SPEC

from efficiency_oracles import (
    A800_SPEC,
    GPUDepositionModel,
    mpu_flops_per_cycle,
    peak_efficiency,
    vpu_flops_per_cycle,
)
from helpers import total_events
from mpu_oracles import MatrixUnit


class TestCounters:
    def test_add_and_merge(self):
        a = PhaseCounters()
        a.add(vpu_fma=3.0, bytes_near=64.0)
        b = PhaseCounters(vpu_fma=1.0, mpu_mopa=2.0)
        a.merge(b)
        assert a.vpu_fma == 4.0
        assert a.mpu_mopa == 2.0
        assert a.bytes_near == 64.0

    def test_add_unknown_counter_raises(self):
        with pytest.raises(AttributeError):
            PhaseCounters().add(bogus=1.0)

    def test_kernel_counters_phases(self):
        counters = KernelCounters()
        counters.phase("compute").add(mpu_mopa=5.0)
        counters.phase("sort").add(scalar_ops=7.0)
        combined = counters.combined()
        assert combined.mpu_mopa == 5.0
        assert combined.scalar_ops == 7.0

    def test_kernel_counters_merge(self):
        a, b = KernelCounters(), KernelCounters()
        a.phase("compute").add(vpu_fma=1.0)
        b.phase("compute").add(vpu_fma=2.0)
        b.phase("extra").add(scalar_ops=3.0)
        a.merge(b)
        assert a.phase("compute").vpu_fma == 3.0
        assert a.phase("extra").scalar_ops == 3.0

    def test_effective_flops_property(self):
        counters = KernelCounters()
        counters.phase("compute").add(effective_flops=100.0)
        counters.phase("preprocess").add(effective_flops=50.0)
        assert counters.effective_flops == 150.0

    def test_total_events_excludes_bytes(self):
        c = PhaseCounters(vpu_fma=2.0, bytes_near=1000.0, effective_flops=99.0)
        assert total_events(c) == 2.0


class TestMatrixUnit:
    def test_single_mopa_outer_product(self):
        mpu = MatrixUnit()
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0, 5.0])
        mpu.mopa(a, b)
        tile = mpu.tile
        np.testing.assert_allclose(tile[:2, :3], np.outer(a, b))
        assert np.all(tile[2:, :] == 0.0)
        assert mpu.counters.mpu_mopa == 1.0

    def test_mopa_accumulates(self):
        mpu = MatrixUnit()
        mpu.mopa(np.ones(2), np.ones(2))
        mpu.mopa(np.ones(2), np.ones(2))
        assert mpu.tile[0, 0] == pytest.approx(2.0)

    def test_mopa_rejects_oversized_operands(self):
        mpu = MatrixUnit(rows=4, cols=4)
        with pytest.raises(ValueError):
            mpu.mopa(np.ones(5), np.ones(2))

    def test_zero_tile_and_read(self):
        mpu = MatrixUnit()
        mpu.mopa(np.ones(8), np.ones(8))
        mpu.zero_tile()
        assert np.all(mpu.read_tile() == 0.0)
        assert mpu.counters.mpu_tile_moves == 2.0

    def test_read_subtile_bounds(self):
        mpu = MatrixUnit()
        with pytest.raises(ValueError):
            mpu.read_tile(9, 2)


class TestSpecs:
    def test_lx2_mpu_is_4x_vpu(self):
        assert mpu_flops_per_cycle(LX2_SPEC) == pytest.approx(
            4.0 * vpu_flops_per_cycle(LX2_SPEC))

    def test_a800_has_no_mpu_path(self):
        assert mpu_flops_per_cycle(A800_SPEC) == 0.0


class TestCostModel:
    def test_vpu_mpu_streams_overlap(self):
        model = CostModel()
        counters = PhaseCounters(vpu_fma=100.0, mpu_mopa=10.0)
        # 100 VPU cycles vs 20 MPU cycles -> the VPU stream dominates
        assert model.phase_cycles(counters) == pytest.approx(100.0)

    def test_memory_bound_phase(self):
        model = CostModel()
        counters = PhaseCounters(vpu_fma=1.0, bytes_far=1.0e6)
        assert model.phase_cycles(counters) == pytest.approx(
            1.0e6 / LX2_SPEC.bytes_per_cycle_far)

    def test_timing_phases_and_total(self):
        model = CostModel()
        counters = KernelCounters()
        counters.phase("preprocess").add(vpu_fma=1.3e9)   # one second of FMA
        counters.phase("compute").add(mpu_mopa=0.65e9)    # one second of MOPA
        timing = model.timing(counters)
        assert timing.preprocess == pytest.approx(1.0)
        assert timing.compute == pytest.approx(1.0)
        assert timing.total == pytest.approx(2.0)

    def test_speedup(self):
        ref = KernelTiming("LX2", {"compute": 2.0})
        opt = KernelTiming("LX2", {"compute": 1.0})
        assert CostModel.speedup(ref, opt) == pytest.approx(2.0)

    def test_peak_efficiency_bounds(self):
        model = CostModel()
        counters = KernelCounters()
        # a kernel that does nothing but useful FMA at full VPU rate
        counters.phase("compute").add(vpu_fma=1.0e6,
                                      effective_flops=1.0e6 * 16.0)
        timing = model.timing(counters)
        assert peak_efficiency(model, timing, reference="vpu") == pytest.approx(1.0)
        assert peak_efficiency(model, timing, reference="max") == pytest.approx(0.25)

    def test_peak_efficiency_unknown_reference(self):
        model = CostModel()
        with pytest.raises(ValueError):
            peak_efficiency(model, KernelTiming("LX2", {"compute": 1.0}), reference="gpu")

    def test_timing_merge_and_scale(self):
        t1 = KernelTiming("LX2", {"compute": 1.0, "sort": 0.5}, effective_flops=10.0)
        t2 = KernelTiming("LX2", {"compute": 2.0}, effective_flops=5.0)
        t1.merge(t2)
        assert t1.total == pytest.approx(3.5)
        assert t1.effective_flops == 15.0
        scaled = t1.scaled(2.0)
        assert scaled.total == pytest.approx(7.0)


class TestGPUModel:
    def test_efficiency_in_expected_range(self):
        model = GPUDepositionModel()
        eff = model.peak_efficiency(1_000_000, order=3, particles_per_cell=512)
        # the paper reports 29.76 % for the A800 CUDA baseline
        assert 0.15 < eff < 0.45

    def test_zero_particles(self):
        model = GPUDepositionModel()
        assert model.kernel_seconds(0, 3, 512) == 0.0
        assert model.peak_efficiency(0, 3, 512) == 0.0

    def test_conflicts_reduce_efficiency(self):
        model = GPUDepositionModel()
        low = model.peak_efficiency(10**6, 3, particles_per_cell=1)
        high = model.peak_efficiency(10**6, 3, particles_per_cell=512)
        assert high < low

    def test_throughput_positive(self):
        model = GPUDepositionModel()
        assert model.throughput(10**6, 1, 64) > 0.0
