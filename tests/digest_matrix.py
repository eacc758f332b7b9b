"""How far two source trees' runs are apart, field by field.

    python tests/digest_matrix.py --against <tree> [--case NAME ...] [--tiny]

runs the cases of :data:`CASES` once in this tree and once in
``<tree>`` (a checkout or ``git checkout-index`` export: anything with
a ``src/repro``), each tree in its own interpreter under
``PYTHONPATH=<tree>/src``, and prints for every case and every field
``max |a - b|`` and the peak ``max(|a|, |b|)`` — their ratio is the
relative move a change that alters numerics quotes.  The fields are the
``capture_state`` arrays (grid components, particle SoA, tile counts,
window offset), the energy history and the session's ``KernelCounters``
(one value per phase and counter).  No stage deposits the charge
density during a run, so ``grid.rho`` is the final state's, deposited by
``deposit_rho_reference`` just before the arrays are taken.  A field one tree lacks, or holds in
another shape (say, a different particle count), reads ``inf``; the
summary counts such one-sided fields apart from the shared fields that
differ.

A case is a seeded session run for a few steps: uniform plasma (8^3
cells, PPC 64) at shape orders 1 and 3 under the reference deposit and
``MatrixPIC (FullOpt)``, on the ``serial`` executor with one shard and
the ``threads`` executor with two, in 4^3 tiles (4096 particles each,
four to a run); the same plasma in 2^3 tiles (512 particles, grouped
into runs of 32: the ``uniform-ref`` bench shape) at order 1 under
both deposits and executors, and in one 8^3 tile (32 768 particles,
worked in two pieces) under ``MatrixPIC (FullOpt)``; one ``Baseline``
case; shape order 2 (TSC, which no bench workload runs) under the
reference deposit and ``Baseline``, the only deposits that take it; and
an LWFA run under ``MatrixPIC (FullOpt)`` and under the reference
deposit across several moving-window shifts; and one 8^3 tile at PPC 8
in a 0.3c plasma (``tests/helpers.py::hot_plasma_session``), which keeps
its population while its particles change cells every step, under the
two incremental sorters ``MatrixPIC (FullOpt)`` and ``Baseline+IncrSort``.
``--tiny`` shrinks every case to a few hundred
particles and two steps (the tier-1 smoke test's size).  The script
imports only ``Session.from_workload``, ``make_strategy``, the two
workload builders, ``ExecutionConfig``, ``deposit_rho_reference``,
``capture_state`` and ``hot_plasma_session``, so it runs against older
trees too.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

MPIC = "MatrixPIC (FullOpt)"

#: name -> (family, shape order, strategy or None for the reference
#: deposit, executor backend, shards, uniform tile edge in cells)
CASES: Dict[str, Tuple[str, int, Optional[str], str, int, int]] = {
    f"uniform-o{order}-{tag}-{backend}{shards}": (
        "uniform", order, strategy, backend, shards, 4)
    for order in (1, 3)
    for tag, strategy in (("ref", None), ("mpic", MPIC))
    for backend, shards in (("serial", 1), ("threads", 2))
}
CASES.update({
    f"small-tiles-o1-{tag}-{backend}{shards}": (
        "uniform", 1, strategy, backend, shards, 2)
    for tag, strategy in (("ref", None), ("mpic", MPIC))
    for backend, shards in (("serial", 1), ("threads", 2))
})
CASES["dense-tile-o3-mpic-serial1"] = ("uniform", 3, MPIC, "serial", 1, 8)
CASES["uniform-o1-baseline-serial1"] = ("uniform", 1, "Baseline", "serial",
                                        1, 4)
CASES["uniform-o2-ref-serial1"] = ("uniform", 2, None, "serial", 1, 4)
CASES["uniform-o2-baseline-serial1"] = ("uniform", 2, "Baseline", "serial",
                                        1, 4)
CASES["lwfa-mpic-serial1"] = ("lwfa", 1, MPIC, "serial", 1, 0)
CASES["lwfa-ref-serial1"] = ("lwfa", 1, None, "serial", 1, 0)
CASES.update({
    f"hot-tile-o1-{tag}-serial1": ("hot", 1, strategy, "serial", 1, 8)
    for tag, strategy in (("mpic", MPIC), ("incr", "Baseline+IncrSort"))
})

#: steps per case at full size; LWFA's window shifts one cell a step
#: from the fourth step on, five times in eight steps
STEPS = {"uniform": 4, "lwfa": 8, "hot": 4}
TINY_STEPS = 2


def _session(name: str, tiny: bool):
    """The case's session, built as ``bench/`` builds its workloads."""
    from repro.api import Session
    from repro.baselines.configs import make_strategy
    from repro.config import ExecutionConfig
    from repro.workloads.lwfa import LWFAWorkload
    from repro.workloads.uniform import UniformPlasmaWorkload

    from helpers import hot_plasma_session

    family, order, strategy, backend, shards, edge = CASES[name]
    execution = ExecutionConfig(backend=backend, num_shards=shards)
    deposition = make_strategy(strategy) if strategy else None
    if family == "lwfa":
        workload = LWFAWorkload(
            n_cell=(8, 8, 32), tile_size=(8, 8, 16), ppc=1 if tiny else 8,
            execution=execution, seed=7)
        return Session.from_workload(workload, deposition=deposition)
    workload = UniformPlasmaWorkload(
        n_cell=(8, 8, 8), tile_size=(edge,) * 3,
        ppc=1 if tiny else 64 if family == "uniform" else 8,
        shape_order=order, execution=execution, seed=7)
    if family == "hot":
        return hot_plasma_session(workload, deposition)
    return Session.from_workload(workload, deposition=deposition)


def case_state(name: str, tiny: bool = False) -> Dict[str, np.ndarray]:
    """Every compared field of one case after its steps, as float64."""
    from repro.ckpt.session import capture_state
    from repro.pic.deposition.reference import deposit_rho_reference

    steps = TINY_STEPS if tiny else STEPS[CASES[name][0]]
    with _session(name, tiny) as session:
        for _ in session.run(steps, record_energy=True):
            pass
        for container in session.containers:
            deposit_rho_reference(session.grid, container,
                                  session.config.shape_order)
        _, arrays = capture_state(session)
        state = {key: np.asarray(array, dtype=np.float64)
                 for key, array in arrays.items()}
        state["energy"] = np.array(
            [[record.field_energy, record.kinetic_energy]
             for record in session.energy.history])
        for phase, counters in session.deposition_counters.phases.items():
            for counter, value in counters.as_dict().items():
                state[f"counters.{phase}.{counter}"] = np.array([value],
                                                                dtype=float)
    return state


def compare(mine: Dict[str, np.ndarray], theirs: Dict[str, np.ndarray]
            ) -> List[Tuple[str, float, float]]:
    """``(field, max |a - b|, peak)`` for every field either side has."""
    rows = []
    for key in sorted(set(mine) | set(theirs)):
        a, b = mine.get(key), theirs.get(key)
        if a is None or b is None or a.shape != b.shape:
            rows.append((key, float("inf"), float("nan")))
            continue
        delta = float(np.max(np.abs(a - b), initial=0.0))
        peak = float(np.max(np.maximum(np.abs(a), np.abs(b)), initial=0.0))
        rows.append((key, delta, peak))
    return rows


def relative(delta: float, peak: float) -> float:
    """``delta / peak``; a field that is zero on both sides reads 0."""
    if delta == 0.0:
        return 0.0
    return delta / peak if peak > 0.0 else float("inf")


def summary(rows: Sequence[Tuple]) -> Tuple[int, int, int]:
    """``(differing, shared, one-sided)`` counts of :func:`compare` rows
    (``(..., max |Δ|, peak)``): a field both trees hold in one shape is
    shared and differs when ``max |Δ|`` is not 0; any other reads
    ``inf`` and is one-sided, a new or dropped field rather than a
    moved number."""
    one_sided = sum(1 for *_, delta, peak in rows if np.isnan(peak))
    moved = sum(1 for *_, delta, peak in rows
                if delta != 0.0 and not np.isnan(peak))
    return moved, len(rows) - one_sided, one_sided


def _dump(path: str, names: Iterable[str], tiny: bool) -> None:
    arrays = {}
    for name in names:
        for key, array in case_state(name, tiny).items():
            arrays[f"{name}/{key}"] = array
    np.savez(path, **arrays)


def _states_of(tree: Path, names: Sequence[str], tiny: bool
               ) -> Dict[str, Dict[str, np.ndarray]]:
    """Run the cases in ``tree``'s own interpreter and load the arrays."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "state.npz")
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--dump", path, *(["--tiny"] if tiny else [])]
        for name in names:
            command += ["--case", name]
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        subprocess.run(command, env=env, check=True, cwd=workdir)
        states: Dict[str, Dict[str, np.ndarray]] = {name: {}
                                                    for name in names}
        with np.load(path) as archive:
            for key in archive.files:
                name, field = key.split("/", 1)
                states[name][field] = archive[key]
    return states


def matrix(against: Path, names: Sequence[str], tiny: bool = False
           ) -> List[Tuple[str, str, float, float]]:
    """``(case, field, max |Δ|, peak)``: this tree against ``against``."""
    here = Path(__file__).resolve().parent.parent
    mine = _states_of(here, names, tiny)
    theirs = _states_of(against, names, tiny)
    return [(name, *row) for name in names
            for row in compare(mine[name], theirs[name])]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path,
                        help="the other tree (holding src/repro)")
    parser.add_argument("--case", action="append", choices=sorted(CASES),
                        help="run only these cases (repeatable)")
    parser.add_argument("--tiny", action="store_true",
                        help="a few hundred particles, two steps")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = args.case or list(CASES)
    if args.dump:
        _dump(args.dump, names, args.tiny)
        return 0
    if args.against is None:
        parser.error("--against is required")
    rows = matrix(args.against.resolve(), names, args.tiny)
    print(f"{'case':<28} {'field':<34} {'max|d|':>10} {'peak':>10} "
          f"{'max|d|/peak':>12}")
    for name, field, delta, peak in rows:
        print(f"{name:<28} {field:<34} {delta:>10.3g} {peak:>10.3g} "
              f"{relative(delta, peak):>12.3g}")
    moved, shared, one_sided = summary(rows)
    print(f"{moved} of {shared} shared fields differ")
    print(f"{one_sided} fields on one side only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
