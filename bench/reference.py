"""Expected values for the benchmark's correctness checks.

Nothing here calls into jobmig: the input generator, the digest, and the
virtual-time cost model are re-derived from their definitions and from the
published Table 1, so a fault in the program cannot hide by also being in the
check.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction

MASK64 = (1 << 64) - 1
VALUE_MOD = 1_000_000

# The paper's Table 1, scenario 2 (ms):
# (N, scenario1 total, scenario2 total, iterations before migration,
#  time on source, time on target, migration overhead)
TABLE1 = (
    (500, 57306, 56422, 249, 27381, 25421, 3620),
    (1000, 111686, 104896, 516, 56805, 43371, 4720),
    (1500, 171436, 159883, 764, 84056, 70002, 5825),
    (2000, 217751, 212264, 1050, 115500, 89811, 6953),
    (2500, 276016, 270604, 1298, 142882, 119944, 7778),
)


def splitmix64(seed: int, count: int) -> list[int]:
    out = []
    x = seed & MASK64
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & MASK64
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def job_input(n: int, seed: int) -> list[int]:
    """The array a sort job of size ``n`` and seed ``seed`` starts from."""
    return [v % VALUE_MOD for v in splitmix64(seed, n)]


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


def expected_output(n: int, seed: int) -> tuple[list[int], int]:
    """The sorted input of a job and its FNV-1a-64 digest over big-endian int64s."""
    ordered = sorted(job_input(n, seed))
    return ordered, fnv1a64(struct.pack(f">{n}q", *ordered))


def job_seed(workload_seed: int, index: int) -> int:
    """Seed of the ``index``-th job of a run; a pure function of the run's seed."""
    return splitmix64((workload_seed << 20) ^ index, 1)[0] >> 1


@dataclass(frozen=True)
class CostModel:
    """Per-iteration cost ``c`` on the source, target speed factor ``s``, and
    migration overhead ``a + b*N``, all exact rationals."""

    c: Fraction
    s: Fraction
    a: Fraction
    b: Fraction

    def scenario1(self, n: int) -> Fraction:
        return n * self.c

    def scenario2(self, n: int, k: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """(source, target, overhead, total) for a withdrawal after ``k`` iterations."""
        source = k * self.c
        target = (n - k) * self.c / self.s
        overhead = self.a + self.b * n
        return source, target, overhead, source + target + overhead


def fit_table1() -> CostModel:
    """Fit the cost model to the published rows: mean cost per element on the
    source, mean cost per element on the target, and the least-squares line
    through the overhead column (normal equations)."""
    rows = TABLE1
    m = len(rows)
    c = sum(Fraction(s1, n) for n, s1, _, _, _, _, _ in rows) / m
    c_target = sum(Fraction(tt, n - k) for n, _, _, k, _, tt, _ in rows) / m
    sx = sum(r[0] for r in rows)
    sy = sum(r[6] for r in rows)
    sxx = sum(r[0] * r[0] for r in rows)
    sxy = sum(r[0] * r[6] for r in rows)
    b = Fraction(m * sxy - sx * sy, m * sxx - sx * sx)
    a = Fraction(sy, m) - b * Fraction(sx, m)
    return CostModel(c=c, s=c / c_target, a=a, b=b)


def check_sorted_prefix(it: int, arr: list[int], expected_sorted: list[int]) -> None:
    """A partially sorted state must hold a permutation of the job's input
    whose first ``it`` entries are sorted and no larger than the rest."""
    n = len(expected_sorted)
    if not 0 <= it <= n or len(arr) != n:
        raise ValueError(f"state has iter={it} and {len(arr)} elements; expected N={n}")
    if sorted(arr) != expected_sorted:
        raise ValueError("state array is not a permutation of the job's input")
    head = arr[:it]
    if any(x > y for x, y in zip(head, head[1:])):
        raise ValueError(f"first {it} entries are not sorted")
    if 0 < it < n and head[-1] > min(arr[it:]):
        raise ValueError(f"sorted prefix of {it} entries exceeds the unsorted rest")
