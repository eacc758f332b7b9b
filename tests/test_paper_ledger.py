"""The paper's numbers, held against the model: the one ledger.

Every number of the paper's evaluation this reproduction checks lives
here.  ``LEDGER`` has one row per published number: the paper's value,
the error the model's reading had when the row was last measured, and
a reading of the modelled cells.  A row passes while its relative
error ``reading / paper - 1`` stays within ``MARGIN`` of the recorded
one, so its bound is ``|recorded error| + MARGIN``.  Like
``test_one_mechanism.ALLOWLIST``, the bounds may only shrink: a row
that moves closer to the paper by more than the margin fails too, and
the change that moved it records the new error (quoting the old one).

The claims the paper states as shapes (the Fig. 8 crossover, the
Fig. 10 order, the orderings of Tables 1-3 and their sort shares) are
asserted as shapes.

Only the modelled clock is read (counts x fixed LX2 constants), so the
ledger is deterministic and reads the same on every machine.  Each
distinct cell runs once, in one module fixture, with no result cache.
One measured step after the warm-up step reads every ratio the same
to three digits as two.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Tuple

import pytest

from repro.analysis.campaign import expand_request, run_spec
from repro.analysis.metrics import crossover_ppc
from repro.baselines.configs import (
    ABLATION_CONFIGS,
    CIC_COMPARISON_CONFIGS,
    QSP_COMPARISON_CONFIGS,
)
from repro.hardware.cost_model import CostModel

from efficiency_oracles import GPUDepositionModel, peak_efficiency

BASE, INCR = "Baseline", "Baseline+IncrSort"
RHO, RHO_INCR = "Rhocell", "Rhocell+IncrSort"
VPU, MPIC = "Rhocell+IncrSort (VPU)", "MatrixPIC (FullOpt)"
#: Fig. 10's ablation order, fastest kernel first
ABLATION_ORDER = (MPIC, "Hybrid-GlobalSort", "Hybrid-noSort", "Matrix-only",
                  BASE)

#: measured steps per cell, after one warm-up step
STEPS = 1
#: allowed drift of a row's relative error from its recorded value
MARGIN = 0.02

#: every cell a row reads, run once each: (family, shape order, PPC) ->
#: configurations.  CIC (order 1) carries the Fig. 8/10 scan and Table 1
#: at PPC 128; QSP (order 3) carries Table 3 at PPC 64 and Table 2 at
#: PPC 128; LWFA is Fig. 9.
GRID = {
    ("uniform", 1, 1): (BASE, MPIC),
    ("uniform", 1, 8): ABLATION_CONFIGS,
    ("uniform", 1, 64): ABLATION_CONFIGS,
    ("uniform", 1, 128): ABLATION_CONFIGS + CIC_COMPARISON_CONFIGS,
    ("uniform", 3, 64): (BASE, VPU, MPIC),
    ("uniform", 3, 128): QSP_COMPARISON_CONFIGS,
    ("lwfa", 1, 1): (BASE, MPIC),
    ("lwfa", 1, 8): (BASE, MPIC),
    ("lwfa", 1, 64): (BASE, MPIC),
}

#: Table 1's kernel seconds (CIC, PPC 128) as the paper prints them
PAPER_T1_SECONDS = {BASE: 74.13, INCR: 45.64, RHO: 54.89, RHO_INCR: 44.81,
                    VPU: 34.13, MPIC: 24.90}
#: Table 3's A800 CUDA baseline, % of FP64 peak
PAPER_A800_PERCENT = 29.76

Cells = Dict[Tuple[str, int, int], Dict[str, object]]


@pytest.fixture(scope="module")
def cells() -> Cells:
    out = {}
    for (family, order, ppc), configurations in GRID.items():
        request = {"workload": family, "ppc": [ppc], "steps": STEPS,
                   "configurations": list(dict.fromkeys(configurations)),
                   # Fig. 9 runs the LWFA plasma in its loaded order,
                   # like the paper
                   "scramble": family == "uniform"}
        if family == "uniform":
            request["shape_order"] = order
        out[family, order, ppc] = {spec.configuration: run_spec(spec)
                                   for spec in expand_request(request)}
    return out


def seconds(cells: Cells, key) -> Dict[str, float]:
    """Configuration -> modelled kernel seconds of one cell."""
    return {name: result.timing.total for name, result in cells[key].items()}


def speedup(cells: Cells, key, over: str, of: str) -> float:
    total = seconds(cells, key)
    return total[over] / total[of]


def percent_of_peak(cells: Cells, configuration: str) -> float:
    """Table 3's metric on the LX2 (QSP, PPC 64)."""
    return 100.0 * peak_efficiency(
        CostModel(), cells["uniform", 3, 64][configuration].timing)


def a800_percent() -> float:
    """The A800 model at Table 3's point (QSP, PPC 512)."""
    return 100.0 * GPUDepositionModel().peak_efficiency(
        num_particles=10_000_000, order=3, particles_per_cell=512)


def lwfa_speedups(cells: Cells) -> Dict[int, float]:
    return {ppc: speedup(cells, ("lwfa", 1, ppc), BASE, MPIC)
            for ppc in (1, 8, 64)}


T1, T2 = ("uniform", 1, 128), ("uniform", 3, 128)


class Row(NamedTuple):
    paper: float
    #: the relative error last measured; the bound is |err| + MARGIN
    err: float
    reading: Callable[[Cells], float]


#: row -> (paper value, recorded relative error, the model's reading)
LEDGER = {
    "T1 IncrSort / Baseline": Row(
        PAPER_T1_SECONDS[BASE] / PAPER_T1_SECONDS[INCR], +0.118,
        lambda c: speedup(c, T1, BASE, INCR)),
    "T1 Rhocell / Baseline": Row(
        PAPER_T1_SECONDS[BASE] / PAPER_T1_SECONDS[RHO], -0.095,
        lambda c: speedup(c, T1, BASE, RHO)),
    "T1 Rhocell+IncrSort / Baseline": Row(
        PAPER_T1_SECONDS[BASE] / PAPER_T1_SECONDS[RHO_INCR], +0.093,
        lambda c: speedup(c, T1, BASE, RHO_INCR)),
    "T1 VPU / Baseline": Row(
        PAPER_T1_SECONDS[BASE] / PAPER_T1_SECONDS[VPU], +0.533,
        lambda c: speedup(c, T1, BASE, VPU)),
    "T1 MatrixPIC / Baseline": Row(
        PAPER_T1_SECONDS[BASE] / PAPER_T1_SECONDS[MPIC], +0.706,
        lambda c: speedup(c, T1, BASE, MPIC)),
    "T1 MatrixPIC / VPU": Row(
        PAPER_T1_SECONDS[VPU] / PAPER_T1_SECONDS[MPIC], +0.113,
        lambda c: speedup(c, T1, VPU, MPIC)),
    "T2 MatrixPIC / Baseline": Row(
        8.7, +0.010, lambda c: speedup(c, T2, BASE, MPIC)),
    "T2 MatrixPIC / VPU": Row(
        2.0, +0.170, lambda c: speedup(c, T2, VPU, MPIC)),
    "T3 Baseline % of peak": Row(
        10.0, -0.195, lambda c: percent_of_peak(c, BASE)),
    "T3 VPU % of peak": Row(
        55.0, -0.465, lambda c: percent_of_peak(c, VPU)),
    "T3 MatrixPIC % of peak": Row(
        83.0, -0.183, lambda c: percent_of_peak(c, MPIC)),
    "T3 MatrixPIC / A800 model": Row(
        83.0 / PAPER_A800_PERCENT, -0.177,
        lambda c: percent_of_peak(c, MPIC) / a800_percent()),
    "F9 best LWFA speedup": Row(
        2.63, +0.026, lambda c: max(lwfa_speedups(c).values())),
}


@pytest.mark.parametrize("name", LEDGER)
def test_row_stays_within_its_bound(cells, name):
    row = LEDGER[name]
    reading = row.reading(cells)
    err = reading / row.paper - 1.0
    where = (f"{name}: model {reading:.4g}, paper {row.paper:.4g}, "
             f"relative error {err:+.3f} (recorded {row.err:+.3f})")
    assert abs(err) <= abs(row.err) + MARGIN, (
        f"{where} is past its bound {abs(row.err) + MARGIN:.3f}")
    assert abs(err) >= abs(row.err) - MARGIN, (
        f"{where} moved toward the paper: record the new error, so that "
        f"the bound shrinks with it")


# -- Figure 8: uniform plasma, CIC, PPC 1 / 8 / 64 / 128 --------------------

def test_fig8_crossover_lies_between_ppc_1_and_8(cells):
    scan = {ppc: cells["uniform", 1, ppc] for ppc in (1, 8, 64, 128)}
    assert crossover_ppc(scan, MPIC, BASE) == 8


def test_fig8_the_advantage_grows_with_density(cells):
    gains = [speedup(cells, ("uniform", 1, ppc), BASE, MPIC)
             for ppc in (1, 8, 64, 128)]
    assert gains == sorted(gains)


# -- Figure 9: LWFA, PPC 1 / 8 / 64 -----------------------------------------

def test_fig9_the_baseline_wins_only_at_low_density(cells):
    gains = lwfa_speedups(cells)
    assert gains[1] < 1.0 < gains[8] < gains[64]


# -- Figure 10: the ablation order at PPC 8 / 64 / 128 -----------------------

@pytest.mark.parametrize("ppc", [8, 64, 128])
def test_fig10_ablation_order(cells, ppc):
    total = seconds(cells, ("uniform", 1, ppc))
    assert sorted(ABLATION_ORDER, key=total.get) == list(ABLATION_ORDER)


# -- Table 1: CIC kernel breakdown, PPC 128 ----------------------------------

def test_table1_rhocell_beats_the_baseline_but_not_the_sorted_baseline(cells):
    total = seconds(cells, T1)
    assert total[INCR] < total[RHO] < total[BASE]


def test_table1_each_step_of_the_design_gains(cells):
    total = seconds(cells, T1)
    assert total[INCR] < total[BASE]
    assert total[RHO_INCR] < total[RHO]
    assert total[VPU] < total[RHO_INCR]
    assert total[MPIC] < total[VPU]


def test_table1_sorting_is_a_small_share(cells):
    timing = cells[T1][MPIC].timing
    assert timing.sort / timing.total < 0.3     # paper: ~11 %


# -- Table 2: QSP kernel breakdown, PPC 128 ----------------------------------

def test_table2_orderings(cells):
    total = seconds(cells, T2)
    assert total[MPIC] < total[VPU] < total[INCR] < total[BASE]


def test_table2_sorting_is_negligible(cells):
    timing = cells[T2][MPIC].timing
    assert timing.sort / timing.total < 0.1     # paper: ~2 %


def test_the_qsp_gain_exceeds_the_cic_gain(cells):
    assert (speedup(cells, T2, BASE, MPIC)
            > speedup(cells, T1, BASE, MPIC))


# -- Table 3: % of FP64 peak, QSP ------------------------------------------

def test_table3_orderings(cells):
    base, vpu, mpic = (percent_of_peak(cells, name)
                       for name in (BASE, VPU, MPIC))
    a800 = a800_percent()
    assert mpic > vpu > base
    assert vpu > 0.9 * a800
    assert base < a800
    assert mpic > 1.5 * a800
    assert mpic > 5.0 * base
