"""Evaluation workloads.

* :mod:`repro.workloads.uniform` — the uniform-plasma workload used for the
  controlled kernel studies (Figures 8 and 10, Tables 1-3),
* :mod:`repro.workloads.lwfa` — the Laser-Wakefield Acceleration workload
  (Figure 9).
"""

from typing import Optional, Sequence, Tuple

from repro.config import SUPPORTED_SHAPE_ORDERS
from repro.domain.decomposition import Decomposition
from repro.workloads.lwfa import LWFAWorkload
from repro.workloads.uniform import UniformPlasmaWorkload, ppc_triple

__all__ = [
    "UniformPlasmaWorkload",
    "LWFAWorkload",
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
#: campaign|run`` and the grid expansion ``expand_request`` both read
GRID_DEFAULTS = {
    "workload": "uniform",
    "ppc": (8, 64),
    "configurations": ("Baseline", "MatrixPIC (FullOpt)"),
    "steps": 2,
    "warmup_steps": 1,
    "seed": 2026,
}
GRID_CHOICES = {
    "workload": tuple(FAMILIES),
    "shape_order": SUPPORTED_SHAPE_ORDERS,
}


def workload_for_family(family: str, *, ppc: int, max_steps: int,
                        seed: int = GRID_DEFAULTS["seed"],
                        domains: Optional[Sequence[int]] = None,
                        n_cell: Optional[Sequence[int]] = None,
                        tile_size: Optional[Sequence[int]] = None,
                        shape_order: Optional[int] = None,
                        execution=None, observe=None):
    """One workload builder with the canonical per-family defaults.

    The single defaulting point behind the grid expansion
    (:func:`repro.analysis.campaign.expand_request`) that ``campaign``,
    ``run`` and the ``repro.serve`` job service share.  Raises
    :class:`ValueError` for an unknown family or shape order, a
    ``shape_order`` on the (order-1-fixed) lwfa workload, a PPC outside
    the paper's scan, or a decomposition the tile lattice cannot split.
    """
    # tuple membership: an unhashable value is refused, not a TypeError
    if family not in GRID_CHOICES["workload"]:
        raise ValueError(
            f"unknown workload family {family!r}; expected one of "
            f"{sorted(FAMILIES)}")
    if shape_order not in (None, *GRID_CHOICES["shape_order"]):
        raise ValueError(
            f"shape_order must be one of "
            f"{list(GRID_CHOICES['shape_order'])}, got {shape_order!r}")
    defaults = FAMILIES[family]
    kwargs = dict(
        ppc=int(ppc),
        max_steps=int(max_steps),
        n_cell=(defaults["n_cell"] if n_cell is None
                else positive_ints("n_cell", n_cell, 3)),
        tile_size=(defaults["tile_size"] if tile_size is None
                   else positive_ints("tile_size", tile_size, 3)),
        domains=(1, 1, 1) if domains is None else positive_ints(
            "domains", domains, 3),
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
    # fail fast on a PPC outside the paper's scan (builders only check
    # lazily when the simulation is built)
    ppc_triple(kwargs["ppc"])
    workload = defaults["builder"](**kwargs)
    if kwargs["domains"] != (1, 1, 1):
        Decomposition(workload.build_config().grid, kwargs["domains"])
    return workload


def positive_ints(name: str, value: Sequence[int],
                  length: Optional[int] = None) -> Tuple[int, ...]:
    """``value`` as a tuple of positive ints: exactly ``length`` of them
    when given, else one or more.  A string, a float or a bool that
    merely coerces is refused: it would expand a typo into some other
    grid."""
    if (not isinstance(value, (list, tuple)) or not value
            or len(value) != (length or len(value))
            or any(isinstance(v, bool) or not isinstance(v, int) or v <= 0
                   for v in value)):
        raise ValueError(f"{name} must be {length or 'one or more'} "
                         f"positive integers, got {value!r}")
    return tuple(value)
