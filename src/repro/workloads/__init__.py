"""Evaluation workloads.

* :mod:`repro.workloads.uniform` — the uniform-plasma workload used for the
  controlled kernel studies (Figures 8 and 10, Tables 1-3),
* :mod:`repro.workloads.lwfa` — the Laser-Wakefield Acceleration workload
  (Figure 9),
* :mod:`repro.workloads.nbody_pm` — Appendix B: particle-mesh mass
  deposition for N-body gravity,
* :mod:`repro.workloads.pme` — Appendix B: particle-mesh-Ewald charge
  assignment for molecular dynamics.
"""

from typing import Optional, Sequence, Tuple

from repro.backend import KERNEL_TIERS, BackendConfig
from repro.backend.base import TIER_AUTO
from repro.workloads.lwfa import LWFAWorkload
from repro.workloads.nbody_pm import ParticleMeshGravity
from repro.workloads.pme import PMEChargeAssignment
from repro.workloads.uniform import UniformPlasmaWorkload

__all__ = [
    "UniformPlasmaWorkload",
    "LWFAWorkload",
    "ParticleMeshGravity",
    "PMEChargeAssignment",
    "FAMILIES",
    "GRID_CHOICES",
    "GRID_DEFAULTS",
    "workload_for_family",
]

#: the workload families a campaign spec can name — the one statement of
#: them: the builder dataclass behind each ``ExperimentSpec.workload_kind``
#: and the per-family grid defaults shared by the CLI and the campaign
#: service, so "the same grid" means the same thing over HTTP and on the
#: command line (and therefore hashes to the same cache keys)
FAMILIES = {
    "uniform": {"builder": UniformPlasmaWorkload,
                "n_cell": (8, 8, 8), "tile_size": (8, 8, 8)},
    "lwfa": {"builder": LWFAWorkload,
             "n_cell": (8, 8, 32), "tile_size": (8, 8, 16)},
}

#: the campaign grid schema: the one statement of the defaults and
#: enumerations that the argparse declarations of ``python -m repro
#: campaign|run`` and ``repro.serve``'s ``expand_request`` both read
GRID_DEFAULTS = {
    "workload": "uniform",
    "ppc": (8, 64),
    "configurations": ("Baseline", "MatrixPIC (FullOpt)"),
    "steps": 2,
    "warmup_steps": 1,
    "seed": 2026,
    "kernel_tier": TIER_AUTO,
}
GRID_CHOICES = {
    "workload": tuple(FAMILIES),
    "shape_order": (1, 2, 3),
    "kernel_tier": (TIER_AUTO, *KERNEL_TIERS),
}


def workload_for_family(family: str, *, ppc: int, max_steps: int,
                        seed: int = GRID_DEFAULTS["seed"],
                        domains: Optional[Sequence[int]] = None,
                        kernel_tier: str = GRID_DEFAULTS["kernel_tier"],
                        n_cell: Optional[Sequence[int]] = None,
                        tile_size: Optional[Sequence[int]] = None,
                        shape_order: Optional[int] = None,
                        execution=None, observe=None):
    """One workload builder with the canonical per-family defaults.

    The single defaulting point behind both ``python -m repro
    run|campaign`` and the ``repro.serve`` job service: a grid submitted
    over HTTP expands to exactly the workloads the CLI would build, so
    the two share campaign cache entries.  Raises :class:`ValueError`
    for an unknown family, a ``shape_order`` on the (order-1-fixed) lwfa
    workload, or a PPC outside the paper's scan.
    """
    if family not in FAMILIES:
        raise ValueError(
            f"unknown workload family {family!r}; expected one of "
            f"{sorted(FAMILIES)}")
    defaults = FAMILIES[family]
    kwargs = dict(
        ppc=int(ppc),
        max_steps=int(max_steps),
        n_cell=_triple(n_cell, defaults["n_cell"], "n_cell"),
        tile_size=_triple(tile_size, defaults["tile_size"], "tile_size"),
        domains=_triple(domains, (1, 1, 1), "domains"),
        backend=BackendConfig(kernel_tier=str(kernel_tier)),
        seed=int(seed),
    )
    if observe is not None:
        kwargs["observe"] = observe
    if execution is not None:
        kwargs["execution"] = execution
    if family == "uniform":
        kwargs["shape_order"] = (int(shape_order)
                                 if shape_order is not None else 1)
    elif shape_order is not None:
        raise ValueError("shape_order applies only to the uniform "
                         "workload (lwfa is fixed at order 1)")
    workload = defaults["builder"](**kwargs)
    # fail fast on a PPC outside the paper's scan (builders only check
    # lazily when the simulation is built)
    workload.ppc_triple()
    return workload


def _triple(value: Optional[Sequence[int]], default: Tuple[int, int, int],
            name: str) -> Tuple[int, int, int]:
    if value is None:
        return default
    # exactly three positive ints: a string, a float or a bool that
    # merely coerces would expand a typo into some other grid
    if (not isinstance(value, (list, tuple)) or len(value) != 3
            or any(isinstance(v, bool) or not isinstance(v, int) or v <= 0
                   for v in value)):
        raise ValueError(
            f"{name} must be 3 positive integers, got {value!r}")
    return tuple(value)
