"""Tests for the kernel-tier table (:mod:`repro.backend`).

Covers the table (both rows, best first, the ``fused`` row present with
or without numba) and ``activate()``'s selection rule (auto, strict
explicit and environment requests), the missing-numba fallback (faked
ImportError, noted exactly once per guarded import, silent to callers),
the bitwise-parity contract between the fused kernel implementations and the
oracle (runnable without numba: the ``_impl`` loop bodies are plain
Python functions), the one selection surface — ``REPRO_KERNEL_TIER``,
read when a run starts and refused by ``run``/``campaign``/``serve``
before any work — and run isolation: the kernel table travels with the
run, so two sessions built under different tiers in one process never
share one.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import logging

import numpy as np
import pytest

from repro.backend import (
    KERNEL_TIER_ENV,
    KERNEL_TIERS,
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
        assert activate() is KERNEL_TIERS[best]

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
        assert columns == ["kernel_tier",
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
        calls, then delegates to the oracle (bitwise identical)."""
        calls = []

        def scatter(flat_ids, weights, amplitude, size):
            calls.append(size)
            return kernels_oracle.scatter(flat_ids, weights, amplitude, size)

        monkeypatch.setitem(KERNEL_TIERS, self.SPY_TIER, dataclasses.replace(
            KERNEL_TIERS["oracle"], kernel_tier=self.SPY_TIER, scatter=scatter))
        return calls

    @pytest.fixture
    def session_under(self, monkeypatch):
        """``session_under(tier, **params)``: a small uniform session built
        under ``REPRO_KERNEL_TIER=tier``, the one way to select a tier.
        The session keeps the row it resolved on its grid, whatever the
        variable says later."""
        from repro.api import Session
        from repro.workloads.uniform import UniformPlasmaWorkload

        def build(tier, **params):
            monkeypatch.setenv(KERNEL_TIER_ENV, tier)
            workload = UniformPlasmaWorkload(
                n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=1, max_steps=4,
                **params)
            return Session.from_workload(workload)

        return build

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
            self, spy_calls, session_under):
        with session_under("oracle") as first, \
                session_under(self.SPY_TIER) as second:
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
    def test_oracle_and_fused_sessions_coexist(self, session_under):
        """The real pair (CI ``kernel-tiers`` jit leg): each session
        dispatches its own tier's ``scatter``, bitwise-equal results."""
        with session_under("oracle") as first, \
                session_under("fused") as second:
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
            self, spy_calls, session_under, params):
        from repro.config import ExecutionConfig

        with session_under("oracle") as decoy:
            with session_under(self.SPY_TIER, execution=ExecutionConfig(
                    backend="threads", num_shards=2), **params) as session:
                session.step()
            assert spy_calls  # scratch grids and slabs carry the table
            del spy_calls[:]
            decoy.step()
            assert spy_calls == []

    def test_interleaved_sessions_match_their_solo_runs(
            self, spy_calls, session_under):
        def solo(tier):
            with session_under(tier) as session:
                for _ in range(3):
                    session.step()
                return self._digest(session)

        expected = {tier: solo(tier) for tier in ("oracle", self.SPY_TIER)}
        solo_calls = len(spy_calls)
        del spy_calls[:]
        with session_under("oracle") as first, \
                session_under(self.SPY_TIER) as second:
            for _ in range(3):
                first.step()
                second.step()
            assert self._digest(first) == expected["oracle"]
            assert self._digest(second) == expected[self.SPY_TIER]
        assert len(spy_calls) == solo_calls


class TestOneSelectionSurface:
    """``REPRO_KERNEL_TIER`` is the one way to select a tier: no flag, no
    config field, no served key; a tier it names that cannot run stops
    ``run``, ``campaign`` and ``serve`` before any work."""

    RUN = ["run", "--n-cell", "4,4,4", "--tile-size", "4,4,4", "--ppc", "1",
           "--steps", "1", "--format", "json"]

    @pytest.mark.parametrize("command", ["run", "campaign"])
    def test_there_is_no_kernel_tier_flag(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([command, "--kernel-tier", "oracle"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_the_environment_selects_the_runs_tier(self, monkeypatch,
                                                   capsys):
        from repro.cli import main

        monkeypatch.setenv(KERNEL_TIER_ENV, "oracle")
        assert main(self.RUN) == 0
        assert json.loads(capsys.readouterr().out)["kernel_tier"] == "oracle"

    @pytest.mark.parametrize("command", ["run", "campaign", "serve"])
    def test_a_tier_that_cannot_run_is_refused_before_any_work(
            self, command, monkeypatch, capsys, tmp_path):
        import repro.serve as serve_package
        from repro.cli import main

        def never(*args, **kwargs):
            raise AssertionError("work started under an unusable tier")

        # cmd_serve imports run_server from the package at call time
        monkeypatch.setattr(serve_package, "run_server", never)
        monkeypatch.setattr("repro.analysis.campaign.Campaign.run", never)
        monkeypatch.setenv(KERNEL_TIER_ENV, "no-such-tier")
        argv = {"run": self.RUN,
                "campaign": ["campaign", "--no-cache", "--ppc", "1"],
                "serve": ["serve", "--port", "0",
                          "--root", str(tmp_path / "root")]}[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown kernel tier 'no-such-tier'")
        assert not (tmp_path / "root").exists()

    @staticmethod
    def _workload():
        from repro.workloads.uniform import UniformPlasmaWorkload

        return UniformPlasmaWorkload(n_cell=(4, 4, 4), tile_size=(4, 4, 4),
                                     ppc=1, max_steps=1)

    @pytest.mark.parametrize("entry", [
        "Session", "Session.from_workload", "SimulationConfig"])
    def test_no_constructor_takes_a_tier_request(self, entry):
        from repro.api import Session
        from repro.config import GridConfig, SimulationConfig

        workload = self._workload()
        build = {
            "Session": lambda: Session(workload.build_config(),
                                       backend="oracle"),
            "Session.from_workload": lambda: Session.from_workload(
                workload, backend="oracle"),
            "SimulationConfig": lambda: SimulationConfig(
                grid=GridConfig(n_cell=(4, 4, 4)),
                backend=BackendConfig(kernel_tier="oracle")),
        }[entry]
        with pytest.raises(TypeError, match="backend"):
            build()

    def test_a_session_keeps_the_tier_it_resolved(self, monkeypatch):
        from repro.api import Session

        monkeypatch.setenv(KERNEL_TIER_ENV, "oracle")
        with Session.from_workload(self._workload()) as session:
            # the variable is read once, when the session is built
            monkeypatch.setenv(KERNEL_TIER_ENV, "no-such-tier")
            session.run_all(1)
            assert session.grid.kernels is KERNEL_TIERS["oracle"]
            assert session.breakdown.kernel_tier == "oracle"

    @pytest.mark.parametrize("tier", ["no-such-tier", "fused"])
    def test_a_tier_that_cannot_run_stops_session_construction(
            self, tier, monkeypatch, numba_missing):
        from repro.api import Session

        monkeypatch.setenv(KERNEL_TIER_ENV, tier)
        with pytest.raises(ValueError, match=f"kernel tier '{tier}'"):
            Session.from_workload(self._workload())
