#!/usr/bin/env python3
"""Demonstration of the MPU outer-product deposition mapping (paper §4.2.1).

This example walks through the heart of Matrix-PIC at the smallest possible
scale: two particles in one cell.  It shows

1. how the 1-D shape factors and the effective current of the two particles
   are packed into the A and B operand vectors,
2. how a single 4x8 MOPA instruction of the simulated MPU produces all 16
   nodal contributions (8 per particle) for the CIC scheme,
3. how the QSP scheme uses an 8x8 outer product for the s_x * s_y part and
   a VPU pass for the trailing s_z multiplication,
4. that both match the canonical scalar deposition formula exactly, and
5. that a whole cell's MOPA loop is one stack of block matrix products —
   the form the production kernel (``tile_rhocells``) hands to BLAS.

Run with:  python examples/mpu_mapping_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.core.mpu_deposit import (
    BLOCK_ROWS,
    build_cic_operands,
    deposit_cell_cic_mpu,
    deposit_cell_qsp_mpu,
)
from repro.hardware.mpu import MatrixUnit
from repro.pic.shapes import shape_factors


def scalar_reference(wx, wy, wz, wq):
    out = np.zeros(wx.shape[1] ** 3)
    for p in range(wx.shape[0]):
        out += wq[p] * np.einsum("i,j,k->ijk", wx[p], wy[p], wz[p]).ravel()
    return out


def main() -> None:
    rng = np.random.default_rng(42)
    # two particles at arbitrary positions inside their cell
    positions = rng.uniform(0.0, 1.0, (2, 3))
    wq = np.array([1.7, -0.9])  # q * v_x * weight / cell volume of each particle

    print("== CIC (first order): one 4x8 outer product covers both particles ==")
    _, wx = shape_factors(positions[:, 0], 1)
    _, wy = shape_factors(positions[:, 1], 1)
    _, wz = shape_factors(positions[:, 2], 1)
    a, b = build_cic_operands(wx, wy, wz, wq)
    print(f"operand A (len 4): {np.array2string(a, precision=4)}")
    print(f"operand B (len 8): {np.array2string(b, precision=4)}")

    mpu = MatrixUnit()
    contributions = deposit_cell_cic_mpu(mpu, wx, wy, wz, wq)
    reference = scalar_reference(wx, wy, wz, wq)
    print(f"MOPA instructions issued: {int(mpu.counters.mpu_mopa)}")
    print(f"tile register moves:      {int(mpu.counters.mpu_tile_moves)}")
    print(f"8 nodal contributions per particle, summed over the cell:")
    print(np.array2string(contributions, precision=5))
    print(f"max |MPU - scalar reference| = "
          f"{np.max(np.abs(contributions - reference)):.2e}")

    print("\n== QSP (third order): 8x8 outer product + VPU s_z pass ==")
    _, wx3 = shape_factors(positions[:, 0], 3)
    _, wy3 = shape_factors(positions[:, 1], 3)
    _, wz3 = shape_factors(positions[:, 2], 3)
    mpu3 = MatrixUnit()
    contributions3 = deposit_cell_qsp_mpu(mpu3, wx3, wy3, wz3, wq)
    reference3 = scalar_reference(wx3, wy3, wz3, wq)
    print(f"MOPA instructions issued: {int(mpu3.counters.mpu_mopa)}")
    print(f"64 nodal contributions accumulated for the cell "
          f"(showing the first 8):")
    print(np.array2string(contributions3[:8], precision=5))
    print(f"max |MPU - scalar reference| = "
          f"{np.max(np.abs(contributions3 - reference3)):.2e}")

    print("\n== A cell of 40 particles: the MOPA loop as stacked block products ==")
    n = 40
    cell_positions = rng.uniform(0.0, 1.0, (n, 3))
    _, sx = shape_factors(cell_positions[:, 0], 3)
    _, sy = shape_factors(cell_positions[:, 1], 3)
    _, sz = shape_factors(cell_positions[:, 2], 3)
    currents = rng.normal(size=(3, n))            # wqx, wqy, wqz per particle
    # Algorithm 2, pair by pair, one current component at a time
    mopa_loop = np.stack([deposit_cell_qsp_mpu(MatrixUnit(), sx, sy, sz, wq_c)
                          for wq_c in currents])
    # the same sums as A^T B: A = [wqx sx | wqy sx | wqz sx], B = sy (x) sz,
    # rows cut into blocks of BLOCK_ROWS (tail zero-padded), blocks added in
    # order — each block is BLOCK_ROWS / 2 MOPAs into a resident tile
    blocks = -(-n // BLOCK_ROWS)
    a_panel = np.zeros((blocks * BLOCK_ROWS, 12))
    b_panel = np.zeros((blocks * BLOCK_ROWS, 16))
    a_panel[:n] = np.einsum("cp,pi->pci", currents, sx).reshape(n, 12)
    b_panel[:n] = np.einsum("pj,pk->pjk", sy, sz).reshape(n, 16)
    products = np.matmul(
        a_panel.reshape(blocks, BLOCK_ROWS, 12).transpose(0, 2, 1),
        b_panel.reshape(blocks, BLOCK_ROWS, 16))  # (blocks, 12, 16)
    block_product = sum(products).reshape(3, 64)  # (component, i*16 + j*4 + k)
    print(f"{n} particles -> {blocks} blocks of {BLOCK_ROWS} rows "
          f"({blocks * BLOCK_ROWS - n} zero rows of padding), "
          f"28 doubles staged per particle instead of 3 x 64")
    print(f"max |block product - MOPA loop| / max |rhocell| = "
          f"{np.max(np.abs(block_product - mopa_loop)) / np.max(np.abs(mopa_loop)):.2e}")

    print("\nTile utilisation: CIC uses 16 of 64 tile lanes per MOPA (25 %),")
    print("QSP uses 32 of 64 (50 %) — which is why the paper's advantage grows")
    print("for higher-order schemes (Table 2).")


if __name__ == "__main__":
    main()
