"""Published comparison values used to cross-check computed bounds.

The layout of the externally published table of bounds that this package
reproduces (its row keys and its columns s = 10, 20, 50, 100, 200, 300, 400,
500), and its Chudnovsky row, which reports compare against.  None of it is
an input to any computation.

Known mismatch: the published Chudnovsky row gives 6 at s = 20, while the
condition-count derivation implemented here yields alpha_max(20) = 9 and
hence the bound (9 + 1)/2 = 5 (the derivation matches the published row in
all other columns).  Reports keep the computed value and attach a
discrepancy flag instead of silently adopting either number.
"""

from __future__ import annotations

from fractions import Fraction

# Row keys, in presentation order; also the CSV column order.
ROW_KEYS = (
    "thm_chud",
    "thm_approach1",
    "thm_approach1alg",
    "thm_approach2alg",
    "algorithm_L",
    "e_s",
)

TABLE_S = (10, 20, 50, 100, 200, 300, 400, 500)

REFERENCE_CHUD: dict[int, Fraction] = {
    10: Fraction(7, 2),
    20: Fraction(6),
    50: Fraction(8),
    100: Fraction(12),
    200: Fraction(17),
    300: Fraction(41, 2),
    400: Fraction(24),
    500: Fraction(27),
}
