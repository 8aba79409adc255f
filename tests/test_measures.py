from fractions import Fraction

import numpy as np

from freelevy.measures import DensityGrid, GridMeasure


def _grid():
    return DensityGrid.from_function(-0.5, 1.5, 41, lambda xs: np.cos(xs) ** 2)


ATOMS = {
    "int": [(-2, 3), (1, 1), (3, 2)],
    "fraction": [(Fraction(-3, 2), Fraction(1, 4)), (Fraction(2, 3), Fraction(5, 12)),
                 (Fraction(7, 5), Fraction(1, 3))],
    "mixed": [(-2, Fraction(1, 6)), (Fraction(1, 3), 2), (5, 1)],
    "fraction_mass_only": [(-1, Fraction(1, 2)), (2, Fraction(1, 2))],
    "integral_fractions": [(Fraction(2), Fraction(1)), (Fraction(-1), 3)],
    "float": [(-1.5, 0.25), (0.5, 0.75)],
    "float_and_exact": [(Fraction(1, 3), 0.5), (2, Fraction(1, 2))],
    "bool": [(True, 1), (-2, Fraction(1, 2))],
    "numpy": [(np.float64(0.5), Fraction(1, 2)), (np.int64(-2), 1),
              (Fraction(1, 3), np.float64(0.25))],
    "empty": [],
}


def test_moments_equal_moment_by_value_and_type():
    for name, atoms in ATOMS.items():
        for grid in (None, _grid()):
            mu = GridMeasure(list(atoms), grid)
            got, want = mu.moments(9), [mu.moment(k) for k in range(1, 10)]
            assert got == want, (name, grid is not None)
            assert [type(v) for v in got] == [type(v) for v in want], (name, grid is not None)
            if grid is not None or name.startswith(("float", "numpy", "bool")):
                assert repr(got) == repr(want), name
