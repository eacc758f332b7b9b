"""Tests for the kernel-tier table (:mod:`repro.backend`).

Covers the table (both rows, best first, the ``fused`` row present with
or without numba) and ``activate()``'s selection rule (auto, strict
explicit and environment requests), the missing-numba fallback (faked
ImportError, noted exactly once per guarded import, silent to callers),
the bitwise-parity contract between the fused kernel implementations and the
oracle (runnable without numba: the ``_impl`` loop bodies are plain
Python functions), and the configuration plumbing — ``BackendConfig`` on
``SimulationConfig``/workloads, the ``Session(backend=...)`` knob, the
``REPRO_KERNEL_TIER`` environment override, the ``kernel_tier`` field of
``RuntimeBreakdown``, the numerics-tag normalisation of campaign
cache keys, and run isolation: the kernel table travels with the run, so
two sessions with different tiers in one process never share one.
"""

from __future__ import annotations

import dataclasses
import importlib
import logging

import numpy as np
import pytest

from repro.backend import (
    KERNEL_TIER_ENV,
    KERNEL_TIERS,
    NUMERICS_FLAT_V1,
    ActiveKernels,
    BackendConfig,
    activate,
    kernels_numba,
    kernels_oracle,
)
from repro.pic.shapes import shape_factors, shape_support


def _random_shape_data(rng, shape, n, order):
    """In-range base indices and 1-D weights plus the bounding box."""
    support = shape_support(order)
    xi = rng.uniform(0.0, shape[0], n)
    yi = rng.uniform(0.0, shape[1], n)
    zi = rng.uniform(0.0, shape[2], n)
    base_x, wx = shape_factors(xi, order)
    base_y, wy = shape_factors(yi, order)
    base_z, wz = shape_factors(zi, order)
    lo = (int(base_x.min()), int(base_y.min()), int(base_z.min()))
    hi = (int(base_x.max()), int(base_y.max()), int(base_z.max()))
    dims = tuple(hi[a] - lo[a] + support for a in range(3))
    return base_x, base_y, base_z, wx, wy, wz, lo, dims


class TestRegistry:
    """The tier table and ``activate()``'s rule (the class keeps the
    name its test ids have carried since there was a registry)."""

    def test_builtin_tiers_registered_best_first(self):
        assert list(KERNEL_TIERS) == ["fused", "oracle"]
        assert all(row.kernel_tier == name for name, row in KERNEL_TIERS.items())

    def test_fused_row_is_present_without_numba(self, numba_missing):
        assert KERNEL_TIERS["fused"].scatter3 is not None

    def test_oracle_always_available(self, numba_missing):
        assert activate("oracle") is KERNEL_TIERS["oracle"]

    def test_auto_resolves_to_best_available(self, monkeypatch):
        monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)
        best = "fused" if kernels_numba.available() else "oracle"
        assert activate("auto") is KERNEL_TIERS[best]
        assert activate("auto").numerics == NUMERICS_FLAT_V1

    def test_unknown_tier_is_an_error(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            activate("no-such-tier")

    def test_explicit_unavailable_tier_is_an_error(self, numba_missing):
        with pytest.raises(ValueError, match=r"not available.*\[jit\]"):
            activate("fused")

    @pytest.mark.parametrize("retired", ["gather6", "fdtd_roll"])
    def test_one_implementation_kernels_are_not_registry_entries(
            self, retired):
        columns = [f.name for f in dataclasses.fields(ActiveKernels)]
        assert columns == ["kernel_tier", "numerics",
                           "build_weights", "scatter", "scatter3"]
        assert retired not in columns

    def test_oracle_dispatch_table_is_complete(self):
        oracle = KERNEL_TIERS["oracle"]
        assert oracle.scatter3 is None  # stencil path is the ref
        assert callable(oracle.build_weights) and callable(oracle.scatter)


class TestMissingNumbaFallback:
    def test_faked_import_error_disables_tier_and_logs_once(
            self, caplog, monkeypatch, numba_missing):
        """With numba unimportable the fused tier silently drops out of
        auto-selection; each failed import is noted exactly once, where
        it happens."""
        def notices():
            return [r for r in caplog.records if "fused" in r.getMessage()]

        monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)  # jit leg sets it
        assert not kernels_numba.available()
        assert "numba is not importable" in kernels_numba.unavailable_reason()
        assert "[jit]" in kernels_numba.unavailable_reason()
        with caplog.at_level(logging.INFO, logger="repro.backend"):
            importlib.reload(kernels_numba)  # one more guarded import
            assert len(notices()) == 1
            # selecting a tier, however often, notes nothing more
            assert activate() is KERNEL_TIERS["oracle"]
            assert activate(BackendConfig()) is KERNEL_TIERS["oracle"]
            assert len(notices()) == 1

    def test_plain_python_kernels_still_work_without_numba(
            self, numba_missing):
        """The kernel wrappers stay callable (and correct) with the jit
        decoration skipped — the substance of the silent fallback."""
        ids = np.array([[0, 1], [1, 2]])
        weights = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = kernels_numba.scatter(ids, weights, None, 4)
        assert out.tolist() == [1.0, 5.0, 4.0, 0.0]


class TestFusedBitwiseParity:
    """The fused kernels equal the oracle *bitwise*.

    These run the fused loop bodies as plain Python when numba is
    missing (identical arithmetic, just slow), so the contract is pinned
    in every environment; the CI [jit] leg re-runs them compiled.
    """

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_build_weights_bitwise(self, order):
        rng = np.random.default_rng(order)
        args = _random_shape_data(rng, (6, 7, 5), 80, order)
        ids_o, wts_o = kernels_oracle.build_weights(*args)
        ids_f, wts_f = kernels_numba.build_weights(*args)
        assert np.array_equal(ids_o, ids_f)
        assert np.array_equal(wts_o, wts_f)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("with_amplitude", [False, True])
    def test_scatter_bitwise(self, order, with_amplitude):
        rng = np.random.default_rng(10 + order)
        args = _random_shape_data(rng, (6, 6, 6), 70, order)
        ids, wts = kernels_oracle.build_weights(*args)
        size = int(np.prod(args[7]))
        amplitude = rng.normal(size=70) if with_amplitude else None
        out_o = kernels_oracle.scatter(ids, wts, amplitude, size)
        out_f = kernels_numba.scatter(ids, wts, amplitude, size)
        assert np.array_equal(out_o, out_f)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_scatter3_bitwise_vs_componentwise_oracle(self, order):
        """The fully fused three-component deposit equals three oracle
        amplitude scatters over the shared stencil, bitwise."""
        rng = np.random.default_rng(20 + order)
        n = 60
        base_x, base_y, base_z, wx, wy, wz, lo, dims = \
            _random_shape_data(rng, (5, 6, 7), n, order)
        ax, ay, az = (rng.normal(size=n) for _ in range(3))
        ids, wts = kernels_oracle.build_weights(
            base_x, base_y, base_z, wx, wy, wz, lo, dims)
        size = int(np.prod(dims))
        boxes = kernels_numba.scatter3(base_x, base_y, base_z, wx, wy, wz,
                                       ax, ay, az, lo, dims)
        for amp, box in zip((ax, ay, az), boxes):
            expected = kernels_oracle.scatter(ids, wts, amp, size)
            assert np.array_equal(expected, box.reshape(-1))

    def test_empty_batch_guards(self):
        empty_i = np.empty((0,), dtype=np.int64)
        empty_w = np.empty((0, 2))
        ids, wts = kernels_numba.build_weights(
            empty_i, empty_i, empty_i, empty_w, empty_w, empty_w,
            (0, 0, 0), (2, 2, 2))
        assert ids.shape == (0, 8) and wts.shape == (0, 8)
        out = kernels_numba.scatter(np.empty((0, 8), dtype=np.int64),
                                    np.empty((0, 8)), None, 8)
        assert out.shape == (8,) and not out.any()


def _bare_grid():
    from repro.config import GridConfig
    from repro.pic.grid import Grid

    return Grid(GridConfig(n_cell=(4, 4, 4)))


class TestActivation:
    def test_default_activation_is_numpy_oracle(self):
        selection = activate(None)
        assert selection is activate("auto")
        assert selection.kernel_tier in KERNEL_TIERS
        # a grid with no run gets exactly this default selection
        assert _bare_grid().kernels is selection

    def test_string_coerces_to_kernel_tier(self):
        selection = activate("oracle")
        assert selection.kernel_tier == "oracle"
        assert selection is activate(BackendConfig(kernel_tier="oracle"))

    def test_activate_installs_nothing(self, monkeypatch):
        monkeypatch.setitem(KERNEL_TIERS, "test-other", dataclasses.replace(
            KERNEL_TIERS["oracle"], kernel_tier="test-other"))
        before = activate(BackendConfig())
        assert activate("test-other") is not before
        # selecting another tier left no trace for later callers
        assert _bare_grid().kernels is before
        assert activate(BackendConfig()) is before

    def test_invalid_config_type_is_an_error(self):
        with pytest.raises(TypeError):
            activate(3.14)

    def test_env_override_applies_to_auto_only(self, monkeypatch):
        monkeypatch.setenv(KERNEL_TIER_ENV, "oracle")
        assert activate(BackendConfig()).kernel_tier == "oracle"
        assert _bare_grid().kernels.kernel_tier == "oracle"
        # an explicitly configured tier wins over the environment
        monkeypatch.setenv(KERNEL_TIER_ENV, "no-such-tier")
        assert activate(
            BackendConfig(kernel_tier="oracle")).kernel_tier == "oracle"

    @pytest.mark.parametrize("value", ["auto", "", "  \t"])
    def test_env_auto_and_whitespace_mean_auto(self, monkeypatch, value):
        monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)
        default = activate()
        monkeypatch.setenv(KERNEL_TIER_ENV, value)
        assert activate() is default

    def test_env_override_is_strict(self, monkeypatch, numba_missing):
        monkeypatch.setenv(KERNEL_TIER_ENV, "no-such-tier")
        with pytest.raises(ValueError, match="unknown kernel tier"):
            activate(BackendConfig())
        monkeypatch.setenv(KERNEL_TIER_ENV, "fused")
        with pytest.raises(ValueError, match=r"not available.*\[jit\]"):
            activate("auto")


class TestRunIsolation:
    """The kernel table belongs to the run, not to the process."""

    SPY_TIER = "test-spy"

    @pytest.fixture
    def spy_calls(self, monkeypatch):
        """Install, for this test only, a row whose ``scatter`` counts
        calls, then delegates to the oracle (same numerics tag: bitwise
        identical)."""
        calls = []

        def scatter(flat_ids, weights, amplitude, size):
            calls.append(size)
            return kernels_oracle.scatter(flat_ids, weights, amplitude, size)

        monkeypatch.setitem(KERNEL_TIERS, self.SPY_TIER, dataclasses.replace(
            KERNEL_TIERS["oracle"], kernel_tier=self.SPY_TIER, scatter=scatter))
        return calls

    @staticmethod
    def _session(backend, **params):
        from repro.api import Session
        from repro.workloads.uniform import UniformPlasmaWorkload

        workload = UniformPlasmaWorkload(
            n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=1, max_steps=4,
            **params)
        return Session.from_workload(workload, backend=backend)

    @staticmethod
    def _digest(session):
        import hashlib

        from repro.ckpt import capture_state

        _meta, arrays = capture_state(session)
        digest = hashlib.sha256()
        for name in sorted(arrays):
            digest.update(name.encode("ascii"))
            digest.update(arrays[name].tobytes())
        return digest.hexdigest()

    def test_a_later_session_does_not_change_an_earlier_ones_tier(
            self, spy_calls):
        with self._session("oracle") as first, \
                self._session(self.SPY_TIER) as second:
            assert first.grid.kernels.kernel_tier == "oracle"
            assert second.grid.kernels.kernel_tier == self.SPY_TIER
            first.step()
            assert spy_calls == []
            second.step()
            assert spy_calls
            assert first.breakdown.kernel_tier == "oracle"
            assert second.breakdown.kernel_tier == self.SPY_TIER

    @pytest.mark.skipif(not kernels_numba.available(),
                        reason="numba missing: no fused tier to pair with")
    def test_oracle_and_fused_sessions_coexist(self):
        """The real pair (CI ``kernel-tiers`` jit leg): each session
        dispatches its own tier's ``scatter``, bitwise-equal results."""
        with self._session("oracle") as first, \
                self._session("fused") as second:
            assert first.grid.kernels.scatter is kernels_oracle.scatter
            assert second.grid.kernels.scatter is kernels_numba.scatter
            for _ in range(2):
                first.step()
                second.step()
            assert first.breakdown.kernel_tier == "oracle"
            assert second.breakdown.kernel_tier == "fused"
            assert self._digest(first) == self._digest(second)

    @pytest.mark.parametrize("params", [
        {},
        {"domains": (2, 1, 1)},
    ], ids=["global", "domains2"])
    def test_sharded_and_decomposed_paths_use_the_runs_tier(
            self, spy_calls, params):
        from repro.config import ExecutionConfig

        with self._session("oracle") as decoy:
            with self._session(self.SPY_TIER, execution=ExecutionConfig(
                    backend="threads", num_shards=2), **params) as session:
                session.step()
            assert spy_calls  # scratch grids and slabs carry the table
            del spy_calls[:]
            decoy.step()
            assert spy_calls == []

    def test_interleaved_sessions_match_their_solo_runs(self, spy_calls):
        def solo(backend):
            with self._session(backend) as session:
                for _ in range(3):
                    session.step()
                return self._digest(session)

        expected = {tier: solo(tier) for tier in ("oracle", self.SPY_TIER)}
        solo_calls = len(spy_calls)
        del spy_calls[:]
        with self._session("oracle") as first, \
                self._session(self.SPY_TIER) as second:
            for _ in range(3):
                first.step()
                second.step()
            assert self._digest(first) == expected["oracle"]
            assert self._digest(second) == expected[self.SPY_TIER]
        assert len(spy_calls) == solo_calls


class TestConfigPlumbing:
    def test_simulation_config_carries_backend(self):
        from repro.config import GridConfig, SimulationConfig

        config = SimulationConfig(grid=GridConfig(n_cell=(4, 4, 4)))
        assert config.backend == BackendConfig()
        updated = config.with_updates(
            backend=BackendConfig(kernel_tier="oracle"))
        assert updated.backend.kernel_tier == "oracle"

    def test_session_backend_knob_and_breakdown_tier(self):
        from repro.workloads.uniform import UniformPlasmaWorkload

        workload = UniformPlasmaWorkload(n_cell=(4, 4, 4),
                                         tile_size=(4, 4, 4),
                                         ppc=1, max_steps=1)
        from repro.api import Session

        with Session.from_workload(workload, backend="oracle") as session:
            assert session.config.backend.kernel_tier == "oracle"
            session.run_all(1)
            assert session.breakdown.kernel_tier == "oracle"

    def test_session_rejects_bad_backend_argument(self):
        from repro.api import Session
        from repro.config import GridConfig, SimulationConfig

        config = SimulationConfig(grid=GridConfig(n_cell=(4, 4, 4)))
        with pytest.raises(TypeError):
            Session(config, backend=42)

    def test_workloads_carry_backend_config(self):
        from repro.workloads.lwfa import LWFAWorkload
        from repro.workloads.uniform import UniformPlasmaWorkload

        for cls in (UniformPlasmaWorkload, LWFAWorkload):
            workload = cls(backend=BackendConfig(kernel_tier="oracle"))
            assert workload.build_config().backend.kernel_tier == "oracle"

    def test_campaign_rebuilds_nested_backend(self):
        # durable spec payloads written before the array-backend seam was
        # retired carry its one legal value; they must still rebuild
        from repro.analysis.campaign import build_workload

        workload = build_workload("uniform", {
            "ppc": 8,
            "backend": {"array_backend": "numpy", "kernel_tier": "oracle"},
        })
        assert workload.backend == BackendConfig(kernel_tier="oracle")
        with pytest.raises(ValueError, match="cupy"):
            build_workload("uniform", {
                "ppc": 8,
                "backend": {"array_backend": "cupy", "kernel_tier": "oracle"},
            })


class TestCacheKeyNumericsTag:
    def _spec(self, kernel_tier):
        import dataclasses

        from repro.analysis.campaign import spec_for_workload
        from repro.workloads.uniform import UniformPlasmaWorkload

        workload = UniformPlasmaWorkload(
            ppc=8, backend=BackendConfig(kernel_tier=kernel_tier))
        spec = spec_for_workload(workload, "Baseline", steps=1)
        assert dataclasses.asdict(workload)["backend"][
            "kernel_tier"] == kernel_tier
        return spec

    def test_bitwise_equal_tiers_share_cache_keys(self):
        """'oracle', 'auto' and (when available) 'fused' all resolve to
        the flat-index numerics tag, so their results share one cache
        entry — different tiers must not collide *unless* bitwise equal,
        and the built-ins are."""
        keys = {self._spec(tier).cache_key()
                for tier in ("oracle", "auto")
                + (("fused",) if kernels_numba.available() else ())}
        assert len(keys) == 1

    def test_different_numerics_get_different_keys(self, monkeypatch):
        """A tier with a different numerics tag cannot replay flat-index
        results from the cache."""
        tier_name = "test-different-numerics"
        monkeypatch.setitem(KERNEL_TIERS, tier_name, dataclasses.replace(
            KERNEL_TIERS["oracle"], kernel_tier=tier_name,
            numerics="test-numerics-v2"))
        assert activate(tier_name).numerics == "test-numerics-v2"
        assert self._spec(tier_name).cache_key() != \
            self._spec("oracle").cache_key()

    def test_numerics_tag_of_auto_matches_oracle(self):
        assert activate("auto").numerics == activate("oracle").numerics
