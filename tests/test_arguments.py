"""The one number rule: every number an argument carries goes through
`measures`. A count, order, size or power goes through `_integer`, with an
upper bound where the module has one; a list of counts through `_integers`;
a real parameter through `_real`. Python and numpy ints pass and are stored
and returned as ints, and reals pass unchanged; bools, strings, values out of
range and non-finite reals raise the module's own error class with the one
message."""

import ast
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import freelevy
from freelevy.cli import main
from freelevy.cumulants import CumulantError, free_poisson_moments, power_sum_joint_cumulant
from freelevy.levy import (
    GeneratingPair, GeneratingTriple, LevyError, LevyMeasure, VariationMap, bernoulli_family,
    bp_limit_check, compound_poisson_triple, shifted_atom_family, triple_to_cumulants,
)
from freelevy.measures import DensityGrid, MeasureError, _real, point_mass, semicircle
from freelevy.ncsym import (
    NCSymError, distinct_neighbor_bruteforce, expand_letters, p_basis, psi_poly,
    stochastic_integral_poly,
)
from freelevy.partitions import (
    Composition, Partition, PartitionError, catalan, compositions, enumerate_int,
    enumerate_nc, one_partition, zero_partition,
)
from freelevy.rmt import (
    SimConfig, SimError, counterexample_rows, finite_n_power_sum_moments, mixed_decay,
    power_sums, predicted_variation_moments, sample_cp_increments, sample_gue, stream,
    trace_moments, variation_target, verify_integral_identity, verify_variation,
)
from freelevy.transforms import (
    TransformError, boxplus_power, free_convolve, free_convolve_moments, free_multiply_moments,
)

_CONFIG = dict(d=4, trials=2, master_seed=1, N=4)
_H = np.array([[1.0, 0.5], [0.5, -1.0]])
_TRIPLE = GeneratingTriple(0, 1, LevyMeasure([(1, 1)]))
_RHO = {"atoms": [[1.0, 1.0]], "grid": None}


def _config(**kw):
    return SimConfig(**{**_CONFIG, **kw})


def _span(least, most):
    return f">= {least}" if most is None else f"in {least}..{most}"


# (error class, least, most or None, what, call of the value, valid value, the
# int(s) the call returns or stores from it, or None when it keeps none)
SITES = {
    "SimConfig.d": (SimError, 2, None, "d", lambda v: _config(d=v), 4, lambda c: c.d),
    "SimConfig.trials": (SimError, 1, None, "trials", lambda v: _config(trials=v), 2,
                         lambda c: c.trials),
    "SimConfig.N": (SimError, 1, None, "N", lambda v: _config(N=v), 4, lambda c: c.N),
    "SimConfig.k_max": (SimError, 1, None, "k_max", lambda v: _config(k_max=v), 3,
                        lambda c: c.k_max),
    "sample_gue": (SimError, 2, None, "d", lambda v: sample_gue(v, 0), 3, None),
    "stream": (SimError, 0, None, "trial", lambda v: stream(1, v, "gue_a"), 2, None),
    # the increments are yielded, so a bad trial must raise at the call itself
    "sample_cp_increments": (SimError, 0, None, "trial",
                             lambda v: sample_cp_increments(_config(), v), 2, None),
    "variation_target.k": (SimError, 1, None, "k", lambda v: variation_target(_config(), v), 2,
                           None),
    "variation_target.trial": (SimError, 0, None, "trial",
                               lambda v: variation_target(_config(), 1, v), 2, None),
    "power_sums": (SimError, 1, None, "k", lambda v: power_sums([_H], v), 2, None),
    "trace_moments": (SimError, 0, None, "n", lambda v: trace_moments(_H, v), 2, None),
    "verify_variation": (SimError, 1, None, "k", lambda v: verify_variation(_config(), v), 2,
                         lambda r: r.extras["k"]),
    "verify_integral_identity": (SimError, 1, 5, "k",
                                 lambda v: verify_integral_identity(_config(), v), 2,
                                 lambda r: r.extras["k"]),
    "threads": (SimError, 1, None, "threads",
                lambda v: verify_integral_identity(_config(), 2, threads=v), 2, None),
    "predicted_variation_moments.k": (
        SimError, 1, None, "k", lambda v: predicted_variation_moments(_config(), v, 3), 2, None),
    "predicted_variation_moments.orders": (
        SimError, 1, None, "orders", lambda v: predicted_variation_moments(_config(), 2, v), 3,
        None),
    "finite_n_power_sum_moments.k": (
        SimError, 1, None, "k", lambda v: finite_n_power_sum_moments(_config(), v, 3), 2, None),
    "finite_n_power_sum_moments.orders": (
        SimError, 1, None, "orders", lambda v: finite_n_power_sum_moments(_config(), 2, v), 3,
        None),
    "counterexample_rows": (SimError, 1, None, "N", lambda v: counterexample_rows(0.25, [v]), 10,
                            lambda rows: rows[0]["N"]),
    "catalan": (PartitionError, 0, None, "the Catalan index", catalan, 3, lambda c: c),
    "Partition": (PartitionError, 1, None, "the ground set size",
                  lambda v: Partition(v, [(1, 2)]), 2, lambda p: p.n),
    "compositions": (PartitionError, 1, None, "the composed integer",
                     lambda v: list(compositions(v)), 3, lambda cs: cs[0].degree),
    "enumerate_nc": (PartitionError, 1, 14, "the ground set size", enumerate_nc, 3,
                     lambda ps: ps[0].n),
    "enumerate_int": (PartitionError, 1, 30, "the ground set size", enumerate_int, 3,
                      lambda ps: ps[0].n),
    "free_convolve": (TransformError, 2, None, "n_points",
                      lambda v: free_convolve(point_mass(0), point_mass(1), n_points=v), 5,
                      None),
    "boxplus_power": (TransformError, 2, None, "n_points",
                      lambda v: boxplus_power([1, 2], 2, n_points=v), 5, None),
    "free_multiply_moments": (TransformError, 1, None, "n",
                              lambda v: free_multiply_moments([1, 2, 5], [1, 2, 5], v), 3,
                              None),
    "free_convolve_moments": (TransformError, 1, None, "n",
                              lambda v: free_convolve_moments([1, 2, 5], [1, 2, 5], v), 3,
                              None),
    "DensityGrid.from_function": (MeasureError, 2, None, "n_points",
                                  lambda v: DensityGrid.from_function(-1, 1, v, np.ones_like),
                                  5, None),
    "semicircle": (MeasureError, 2, None, "n_points", lambda v: semicircle(1.0, n_points=v), 5,
                   None),
    "GridMeasure.moments": (MeasureError, 0, None, "n", lambda v: point_mass(2).moments(v), 3,
                            None),
    "free_poisson_moments": (CumulantError, 1, None, "n", lambda v: free_poisson_moments(1, v),
                             3, None),
    "power_sum_joint_cumulant": (
        CumulantError, 1, None, "count",
        lambda v: power_sum_joint_cumulant((1, 1), [1, 2, 5], v), 2, lambda r: r[0]),
    "VariationMap.power": (LevyError, 1, None, "k", VariationMap.power, 2, lambda vm: vm.p(3)),
    "triple_to_cumulants": (LevyError, 1, None, "the cumulant order n",
                            lambda v: triple_to_cumulants(_TRIPLE, v), 3, None),
    "stochastic_integral_poly": (NCSymError, 1, 12, "k", stochastic_integral_poly, 3, None),
    "psi_poly": (NCSymError, 0, 12, "n", psi_poly, 3, None),
    "expand_letters": (NCSymError, 1, 6, "letters",
                       lambda v: expand_letters(p_basis(zero_partition(2)), v), 2, None),
    "distinct_neighbor_bruteforce": (
        NCSymError, 1, 6, "letters",
        lambda v: distinct_neighbor_bruteforce(Composition([1, 1]), v), 2, None),
}
# accepting the bound itself lists catalan(14) or 2^29 partitions
_SLOW_AT_MOST = {"enumerate_nc", "enumerate_int"}


@pytest.mark.parametrize(
    "site, value",
    [pytest.param(site, value, id=f"{site}-{value!r}")
     for site, (_, least, *_) in SITES.items() for value in (2.5, True, "3", least - 1)],
)
def test_a_count_that_is_not_an_integer_at_least_its_bound_is_rejected(site, value):
    error, least, most, what, call, _, _ = SITES[site]
    message = f"{what} must be an integer {_span(least, most)}, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("site", [site for site, row in SITES.items() if row[2] is not None])
def test_a_count_above_its_upper_bound_is_rejected(site):
    error, least, most, what, call, _, _ = SITES[site]
    message = f"{what} must be an integer in {least}..{most}, got {most + 1}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(most + 1)


@pytest.mark.parametrize("site", [site for site, row in SITES.items()
                                  if row[2] is not None and site not in _SLOW_AT_MOST])
def test_a_count_at_its_upper_bound_is_accepted(site):
    _, _, most, _, call, _, _ = SITES[site]
    call(np.int64(most))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: p_basis(one_partition(21)), NCSymError,
                 "the p_basis degree must be an integer in 1..20, got 21", id="p_basis"),
    pytest.param(lambda: expand_letters(p_basis(one_partition(9)), 1), NCSymError,
                 "the total degree must be an integer in 0..8, got 9", id="expand_letters"),
    pytest.param(lambda: distinct_neighbor_bruteforce(Composition([9]), 1), NCSymError,
                 "the total degree must be an integer in 0..8, got 9",
                 id="distinct_neighbor_bruteforce"),
])
def test_a_degree_above_its_bound_is_rejected(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_a_degree_at_its_bound_is_accepted():
    assert p_basis(one_partition(20)).degree() == 20
    assert expand_letters(p_basis(one_partition(8)), 1).degree() == 8


@pytest.mark.parametrize("site", list(SITES))
def test_a_numpy_int_is_accepted_and_kept_as_an_int(site):
    _, _, _, _, call, valid, stored = SITES[site]
    out = call(np.int64(valid))
    if stored is not None:
        assert type(stored(out)) is int and stored(out) == stored(call(valid))


# (error class, least, what, call of the value, valid value, the ints the
# call stores from it)
LIST_SITES = {
    "Composition": (PartitionError, 1, "composition parts", Composition, [2, 1],
                    lambda c: c.parts),
    "power_sum_joint_cumulant": (
        CumulantError, 1, "powers", lambda v: power_sum_joint_cumulant(v, [1, 2, 5], 2), (1, 1),
        lambda r: [r[0]]),
    "bp_limit_check": (LevyError, 1, "ns", lambda v: bp_limit_check(bernoulli_family(1), v),
                       [10, 100], lambda r: r.ns),
    "mixed_decay": (SimError, 1, "schedule",
                    lambda v: mixed_decay(_config(), "product", schedule=v), [4, 8],
                    lambda r: r.extras["schedule"]),
}


@pytest.mark.parametrize(
    "site, value",
    [pytest.param(site, value, id=f"{site}-{label}")
     for site in LIST_SITES
     for label, value in (("empty", []), ("string", "12"), ("bool", [1, True]),
                          ("float", (1, 2.0)), ("below", [1, 0]))],
)
def test_a_list_of_counts_that_is_not_a_nonempty_list_of_integers_is_rejected(site, value):
    error, least, what, call, _, _ = LIST_SITES[site]
    message = f"{what} must be a nonempty list of integers >= {least}, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("site", list(LIST_SITES))
def test_a_list_of_numpy_ints_is_accepted_and_kept_as_ints(site):
    _, _, _, call, valid, stored = LIST_SITES[site]
    out = stored(call([np.int64(v) for v in valid]))
    assert all(type(v) is int for v in out) and list(out) == list(stored(call(valid)))


# (error class, what, call of the value)
REAL_SITES = {
    "SimConfig.t": (SimError, "t", lambda v: _config(t=v)),
    "SimConfig.lam": (SimError, "lam", lambda v: _config(lam=v)),
    "SimConfig.alpha": (SimError, "alpha", lambda v: _config(alpha=v)),
    "mixed_decay": (SimError, "decay_threshold",
                    lambda v: mixed_decay(_config(), decay_threshold=v)),
    "counterexample_rows.alpha": (SimError, "alpha", lambda v: counterexample_rows(v, [10])),
    "counterexample_rows.t": (SimError, "t", lambda v: counterexample_rows(0.25, [10], v)),
    "GeneratingTriple.from_json": (
        LevyError, "eta", lambda v: GeneratingTriple.from_json({"eta": v, "a": 0, "rho": _RHO})),
    "GeneratingPair.from_json": (
        LevyError, "gamma", lambda v: GeneratingPair.from_json({"gamma": v, "sigma": _RHO})),
    "bernoulli_family": (LevyError, "lam", bernoulli_family),
    "shifted_atom_family": (LevyError, "c", shifted_atom_family),
    "compound_poisson_triple": (LevyError, "lam",
                                lambda v: compound_poisson_triple(v, point_mass(1))),
    "VariationMap.polynomial": (LevyError, "a polynomial coefficient",
                                lambda v: VariationMap.polynomial([1, v])),
    "boxplus_power": (TransformError, "power", lambda v: boxplus_power([1, 2], v)),
    "semicircle.variance": (MeasureError, "variance", semicircle),
    "semicircle.center": (MeasureError, "center", lambda v: semicircle(1.0, center=v)),
    "free_poisson_moments": (CumulantError, "lam", lambda v: free_poisson_moments(v, 3)),
}


@pytest.mark.parametrize(
    "site, value",
    [pytest.param(site, value, id=f"{site}-{label}")
     for site in REAL_SITES
     for label, value in (("nan", math.nan), ("inf", math.inf), ("bool", True),
                          ("string", "1"), ("401-digits", 10**400))],
)
def test_a_real_parameter_that_is_not_a_finite_real_is_rejected(site, value):
    error, what, call = REAL_SITES[site]
    message = f"{what} must be a finite real number, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("value", [Fraction(1, 3), 3, np.float64(0.5), 10**300])
def test_a_real_comes_back_as_itself(value):
    assert _real(value, "x", ValueError) is value


def test_exact_reals_stay_exact_through_the_sites():
    assert _config(t=Fraction(1, 2)).t == Fraction(1, 2)
    assert free_poisson_moments(Fraction(1, 2), 2) == [Fraction(1, 2), Fraction(3, 4)]
    assert VariationMap.polynomial([Fraction(1, 3)]).p(3) == 1


def test_levy_variation_with_a_nan_coefficient_exits_2(tmp_path, capsys):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({"eta": 0.0, "a": 1.0, "rho": _RHO}))
    code = main(["levy", "variation", "--input", str(path), "--p", "poly:1,nan"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: a polynomial coefficient must be a finite real number, got nan\n"


@pytest.mark.parametrize("flag, value", [("--lam", "inf"), ("--c", "-inf"), ("--c", "nan")])
def test_levy_with_a_flag_that_is_not_a_finite_real_exits_2(capsys, flag, value):
    code = main(["levy", "bp-check", "--family", "bernoulli", "--ns", "10", f"{flag}={value}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {flag} must be a finite real number, got {float(value)!r}\n"


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


# -- no number is checked by hand outside measures --------------------------------

_SOURCES = sorted(p for p in Path(freelevy.__file__).parent.glob("*.py")
                  if p.name != "measures.py")
# the predicate calls that are no scalar argument check: a seed may be any
# integer, negative too, and the matcauchy reader tests a nested array of reals
_PREDICATE_ALLOWED = {
    ("rmt.py", "SimConfig.__post_init__", "_is_integer(self.master_seed)"),
    ("cli.py", "_real_array", "_is_real(v)"),
}
_BOUNDS = {"NC_ENUMERATION_BOUND", "INT_ENUMERATION_BOUND", "P_BASIS_MAX_DEGREE",
           "LETTER_EXPANSION_MAX_N", "LETTER_EXPANSION_MAX_DEGREE", "SERIES_MAX_ORDER",
           "IDENTITY_MAX_K"}


def _scoped(node, scope=""):
    """(scope, node) for every node below `node`, scope the dotted name of
    the enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield from _scoped(child, inner)


def _trees():
    return [(path.name, ast.parse(path.read_text())) for path in _SOURCES]


def test_no_module_but_measures_tests_a_scalar_by_hand():
    calls = {
        (name, scope, ast.unparse(node))
        for name, tree in _trees() for scope, node in _scoped(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("_is_integer", "_is_real")
    }
    assert calls == _PREDICATE_ALLOWED


def test_every_upper_bound_is_the_most_of_an_integer_check():
    uses, checks = [], []
    for name, tree in _trees():
        for _, node in _scoped(tree):
            if isinstance(node, ast.Name) and node.id in _BOUNDS:
                uses.append((name, node.id))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "_integer" and len(node.args) == 5
                  and isinstance(node.args[4], ast.Name)):
                checks.append((name, node.args[4].id))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in _BOUNDS for t in node.targets):
                checks.append((name, node.targets[0].id))  # the definition
    assert sorted(uses) == sorted(checks)
    assert {bound for _, bound in uses} == _BOUNDS
