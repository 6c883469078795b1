"""Exact zero-sum matrix game solver (fraction-free integer simplex).

Solves max_p min_j (p^T A)_j over row distributions p through the packing
LP of the game shifted positive: ``max 1'w subject to A w <= 1, w >= 0``
has optimum 1/v.  The tableau is kept in integers: the packing columns and
their objective are scaled by the lcm of the matrix's denominators, and each
pivot on ``p`` updates every other row as ``(p*v - f*r) // d`` with ``d`` the
previous pivot, which always divides exactly (Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination", Math. Comp. 1968).
Bland's rule picks the entering column and the ratio test compares by
cross-multiplication, so the pivots are those a rational tableau would make
and the simplex terminates.

Both players' optimal mixed strategies come out of the final tableau: the
row player's from the duals on the slack columns, and the column player's
(the dual certificate) from the basic packing variables.  Sized for the
quotient games ``analysis.coherence`` solves after colour refinement: tens
of rows and at most a few hundred columns.
"""

from __future__ import annotations

import math
from fractions import Fraction


def matrix_game_value(
    matrix: list[list[int | Fraction]],
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Value and one optimal mixed strategy for each player of a matrix game.

    The row player maximizes; entries may be any rationals.  Returns
    ``(value, row_strategy, column_strategy)``: the row strategy holds every
    column to at least the value, the column strategy holds every row to at
    most the value.
    """
    rows = len(matrix)
    if rows == 0:
        raise ValueError("game needs at least one row")
    cols = len(matrix[0])
    if cols == 0 or any(len(r) != cols for r in matrix):
        raise ValueError("game matrix must be rectangular and nonempty")

    shift = 1 - min(Fraction(v) for row in matrix for v in row)
    shifted = [[Fraction(v) + shift for v in row] for row in matrix]
    scale = math.lcm(*(v.denominator for row in shifted for v in row))

    # Packing variable j is stored as w_j / scale, so its column is
    # scale * A[:, j] and its objective coefficient is scale; the slack
    # columns and the right-hand side keep their unit entries.  Columns
    # 0..cols-1 are the packing variables, cols..cols+rows-1 the slacks, the
    # last one the right-hand side.  The true tableau is the integer one
    # divided by `det`, which stays positive.
    width = cols + rows
    tableau = [
        [int(v * scale) for v in row] + [int(i == j) for j in range(rows)] + [1]
        for i, row in enumerate(shifted)
    ]
    obj = [-scale] * cols + [0] * rows + [0]
    basis = [cols + i for i in range(rows)]
    det = 1

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        for i, row in enumerate(tableau):
            coeff = row[entering]
            if coeff <= 0:
                continue
            if leaving is None:
                leaving = i
                continue
            best = tableau[leaving]
            # rhs_i / coeff_i against rhs_best / coeff_best, both coefficients positive
            left, right = row[width] * best[entering], best[width] * coeff
            if left < right or (left == right and basis[i] < basis[leaving]):
                leaving = i
        if leaving is None:
            raise RuntimeError("unbounded packing LP; game matrix was not shifted positive")
        pivot_row = tableau[leaving]
        pivot = pivot_row[entering]
        for i, row in enumerate(tableau):
            if i != leaving:
                tableau[i] = _eliminate(row, pivot_row, pivot, row[entering], det)
        obj = _eliminate(obj, pivot_row, pivot, obj[entering], det)
        det = pivot
        basis[leaving] = entering

    total = obj[width]  # det times the packing optimum, which is 1/shifted value
    if total <= 0:
        raise RuntimeError("degenerate packing optimum; shift failed")
    value = Fraction(det, total) - shift
    row_strategy = [Fraction(obj[cols + i], total) for i in range(rows)]
    column_strategy = [Fraction(0)] * cols
    for i, j in enumerate(basis):
        if j < cols:
            column_strategy[j] = Fraction(scale * tableau[i][width], total)
    return value, row_strategy, column_strategy


def _eliminate(row: list[int], pivot_row: list[int], pivot: int, factor: int, det: int) -> list[int]:
    return [(pivot * v - factor * r) // det for v, r in zip(row, pivot_row)]
