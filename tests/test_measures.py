import math
from fractions import Fraction

import numpy as np
import pytest

from freelevy.measures import DensityGrid, GridMeasure, MeasureError


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


@pytest.mark.parametrize("j", [0, -40, 40])
def test_density_floor_is_relative_to_the_largest_value(j):
    # the law [0, 1, 2, 1, tail] at step 1 dilated by c = 2^j: values / c, step c;
    # a rounding tail of -5e-13 is clipped and -1e-3 rejected at every scale
    c = math.ldexp(1.0, j)
    law = [0.0, 1.0, 2.0, 1.0]
    kept = DensityGrid(0.0, 4 * c, c, np.array(law + [-5e-13]) / c)
    assert kept.values[-1] == 0.0 and kept.values[2] == 2.0 / c
    with pytest.raises(MeasureError, match="nonnegative"):
        DensityGrid(0.0, 4 * c, c, np.array(law + [-1e-3]) / c)
    with pytest.raises(MeasureError, match="nonnegative"):  # nothing positive to scale by
        DensityGrid(0.0, 2 * c, c, np.array([0.0, 0.0, -1e-300]) / c)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_numpy_integer_atoms_are_python_ints(dtype):
    # 3^45 and its neighbours leave int64: a measure reads numpy integers as
    # ints, so moment(45) once wrapped to 2833654757305440083
    atoms = [(3, 1), (-2, 5), (7, 2)]
    mu = GridMeasure([(dtype(x), dtype(m)) for x, m in atoms])
    assert GridMeasure([(dtype(3), dtype(1))]).moment(45) == 3**45
    for n in (30, 45):
        want = [sum(m * x**k for x, m in atoms) for k in range(1, n + 1)]
        for got in (mu.moments(n), [mu.moment(k) for k in range(1, n + 1)]):
            assert got == want and all(type(v) is int for v in got)
