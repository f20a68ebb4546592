"""A fixed amount of interpreter work, timed to gauge the host's current speed.

Usage: python bench/calibrate.py

It does not import quatflow, so a change to the program leaves its time
alone; only the host does not.  Its mix follows what a quatflow run spends
its time on: float arithmetic and attribute lookups in the interpreter,
operations on length-8 numpy arrays, dict updates and float formatting.
run.py times it as a fresh interpreter, like every run it measures, and
divides the times of the runs around it by its time (see run.py).
"""

import numpy as np

REPS = 200_000


class Dual:
    """A value and a derivative, like the dual numbers of a gradient pass."""

    __slots__ = ("value", "slope")

    def __init__(self, value: float, slope: float) -> None:
        self.value = value
        self.slope = slope

    def mul(self, other: "Dual") -> "Dual":
        return Dual(self.value * other.value, self.value * other.slope + self.slope * other.value)


def main() -> int:
    vector = np.arange(8.0)
    acc = Dual(1.0, 0.0)
    table: dict[int, float] = {}
    rows: list[str] = []
    for i in range(REPS):
        x = Dual(1.0 + (float(vector[i & 7]) - 3.5) * 1e-4, 1.0)
        acc = acc.mul(x)
        acc.value = acc.value * 0.999 + 1e-3
        acc.slope *= 0.5
        table[i & 255] = acc.value
        if i & 3 == 0:
            acc.value += float((vector * 0.5 + acc.value) @ vector) * 1e-9
        if i & 15 == 0:
            rows.append(f"{acc.value:.17g},{acc.slope!r}")
    return len(",".join(rows)) + len(table)


if __name__ == "__main__":
    main()
