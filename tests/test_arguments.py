"""The one integer rule: every count, order, size and power goes through
`measures._integer`. Python and numpy ints pass and are stored and returned
as ints; bools, floats, strings and values below the least allowed one raise
the module's own error class with the one message."""

import json
import re

import numpy as np
import pytest

from freelevy.cli import main
from freelevy.cumulants import CumulantError, free_poisson_moments
from freelevy.levy import (
    GeneratingTriple, LevyError, LevyMeasure, VariationMap, triple_to_cumulants,
)
from freelevy.measures import DensityGrid, MeasureError, point_mass, semicircle
from freelevy.ncsym import (
    NCSymError, distinct_neighbor_bruteforce, expand_letters, p_basis, psi_poly,
    stochastic_integral_poly,
)
from freelevy.partitions import (
    Composition, Partition, PartitionError, catalan, compositions, enumerate_int,
    enumerate_nc, zero_partition,
)
from freelevy.rmt import (
    SimConfig, SimError, counterexample_rows, finite_n_power_sum_moments, mixed_decay,
    power_sums, predicted_variation_moments, sample_gue, trace_moments,
    verify_integral_identity, verify_variation,
)
from freelevy.transforms import (
    TransformError, boxplus_power, free_convolve, free_convolve_moments, free_multiply_moments,
)

_CONFIG = dict(d=4, trials=2, master_seed=1, N=4)
_H = np.array([[1.0, 0.5], [0.5, -1.0]])
_TRIPLE = GeneratingTriple(0, 1, LevyMeasure([(1, 1)]))


def _config(**kw):
    return SimConfig(**{**_CONFIG, **kw})


# (error class, least, what, call of the value, valid value, the int(s) the
# call returns or stores from it, or None when it keeps none)
SITES = {
    "SimConfig.d": (SimError, 2, "d", lambda v: _config(d=v), 4, lambda c: c.d),
    "SimConfig.trials": (SimError, 1, "trials", lambda v: _config(trials=v), 2,
                         lambda c: c.trials),
    "SimConfig.N": (SimError, 1, "N", lambda v: _config(N=v), 4, lambda c: c.N),
    "SimConfig.k_max": (SimError, 1, "k_max", lambda v: _config(k_max=v), 3,
                        lambda c: c.k_max),
    "sample_gue": (SimError, 2, "d", lambda v: sample_gue(v, 0), 3, None),
    "power_sums": (SimError, 1, "k", lambda v: power_sums([_H], v), 2, None),
    "trace_moments": (SimError, 0, "n", lambda v: trace_moments(_H, v), 2, None),
    "verify_variation": (SimError, 1, "k", lambda v: verify_variation(_config(), v), 2,
                         lambda r: r.extras["k"]),
    "verify_integral_identity": (SimError, 1, "k",
                                 lambda v: verify_integral_identity(_config(), v), 2,
                                 lambda r: r.extras["k"]),
    "threads": (SimError, 1, "threads",
                lambda v: verify_integral_identity(_config(), 2, threads=v), 2, None),
    "predicted_variation_moments.k": (
        SimError, 1, "k", lambda v: predicted_variation_moments(_config(), v, 3), 2, None),
    "predicted_variation_moments.orders": (
        SimError, 1, "orders", lambda v: predicted_variation_moments(_config(), 2, v), 3, None),
    "finite_n_power_sum_moments.k": (
        SimError, 1, "k", lambda v: finite_n_power_sum_moments(_config(), v, 3), 2, None),
    "finite_n_power_sum_moments.orders": (
        SimError, 1, "orders", lambda v: finite_n_power_sum_moments(_config(), 2, v), 3, None),
    "counterexample_rows": (SimError, 1, "N", lambda v: counterexample_rows(0.25, [v]), 10,
                            lambda rows: rows[0]["N"]),
    "catalan": (PartitionError, 0, "the Catalan index", catalan, 3, lambda c: c),
    "Partition": (PartitionError, 1, "the ground set size",
                  lambda v: Partition(v, [(1, 2)]), 2, lambda p: p.n),
    "compositions": (PartitionError, 1, "the composed integer",
                     lambda v: list(compositions(v)), 3, lambda cs: cs[0].degree),
    "enumerate_nc": (PartitionError, 1, "the ground set size", enumerate_nc, 3,
                     lambda ps: ps[0].n),
    "enumerate_int": (PartitionError, 1, "the ground set size", enumerate_int, 3,
                      lambda ps: ps[0].n),
    "free_convolve": (TransformError, 2, "n_points",
                      lambda v: free_convolve(point_mass(0), point_mass(1), n_points=v), 5,
                      None),
    "boxplus_power": (TransformError, 2, "n_points",
                      lambda v: boxplus_power([1, 2], 2, n_points=v), 5, None),
    "free_multiply_moments": (TransformError, 1, "n",
                              lambda v: free_multiply_moments([1, 2, 5], [1, 2, 5], v), 3,
                              None),
    "free_convolve_moments": (TransformError, 1, "n",
                              lambda v: free_convolve_moments([1, 2, 5], [1, 2, 5], v), 3,
                              None),
    "DensityGrid.from_function": (MeasureError, 2, "n_points",
                                  lambda v: DensityGrid.from_function(-1, 1, v, np.ones_like),
                                  5, None),
    "semicircle": (MeasureError, 2, "n_points", lambda v: semicircle(1.0, n_points=v), 5, None),
    "GridMeasure.moments": (MeasureError, 0, "n", lambda v: point_mass(2).moments(v), 3,
                            None),
    "free_poisson_moments": (CumulantError, 1, "n", lambda v: free_poisson_moments(1, v), 3,
                             None),
    "VariationMap.power": (LevyError, 1, "k", VariationMap.power, 2, lambda vm: vm.p(3)),
    "triple_to_cumulants": (LevyError, 1, "the cumulant order n",
                            lambda v: triple_to_cumulants(_TRIPLE, v), 3, None),
    "stochastic_integral_poly": (NCSymError, 1, "k", stochastic_integral_poly, 3, None),
    "psi_poly": (NCSymError, 0, "n", psi_poly, 3, None),
    "expand_letters": (NCSymError, 1, "letters",
                       lambda v: expand_letters(p_basis(zero_partition(2)), v), 2, None),
    "distinct_neighbor_bruteforce": (
        NCSymError, 1, "letters",
        lambda v: distinct_neighbor_bruteforce(Composition([1, 1]), v), 2, None),
}


@pytest.mark.parametrize(
    "site, value",
    [pytest.param(site, value, id=f"{site}-{value!r}")
     for site, (_, least, *_) in SITES.items() for value in (2.5, True, "3", least - 1)],
)
def test_a_count_that_is_not_an_integer_at_least_its_bound_is_rejected(site, value):
    error, least, what, call, _, _ = SITES[site]
    message = f"{what} must be an integer >= {least}, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("site", list(SITES))
def test_a_numpy_int_is_accepted_and_kept_as_an_int(site):
    _, _, _, call, valid, stored = SITES[site]
    out = call(np.int64(valid))
    if stored is not None:
        assert type(stored(out)) is int and stored(out) == stored(call(valid))


def test_config_stores_numpy_ints_as_ints_and_seeds_the_same_streams():
    np_cfg = SimConfig(**{k: np.int64(v) for k, v in _CONFIG.items()}, k_max=np.int64(3))
    assert all(type(getattr(np_cfg, name)) is int
               for name in ("d", "trials", "master_seed", "N", "k_max"))
    report = verify_variation(np_cfg)
    assert report.dumps() == verify_variation(_config(k_max=3)).dumps()


@pytest.mark.parametrize("seed", [-3, np.int64(-3), 2**70])
def test_config_keeps_any_integer_seed_as_an_int(seed):
    cfg = _config(master_seed=seed)
    assert type(cfg.master_seed) is int and cfg.master_seed == seed
    assert verify_integral_identity(cfg).passed  # the seed keys every stream


def test_campaigns_report_a_numpy_k_and_schedule_as_json_ints():
    report = verify_variation(_config(), np.int64(2))
    assert json.loads(report.dumps())["extras"]["k"] == 2
    mixed = mixed_decay(_config(), "product", schedule=[np.int64(4), np.int64(8)])
    assert [type(n) for n in mixed.extras["schedule"]] == [int, int]
    assert json.loads(mixed.dumps())["extras"]["schedule"] == [4, 8]


def test_sim_variation_with_a_non_integer_k_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_CONFIG, "k": 2.5}))
    code = main(["sim", "variation", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: k must be an integer >= 1, got 2.5\n"
