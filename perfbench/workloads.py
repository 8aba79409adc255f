"""The four benchmark workloads.

A workload is built from a seed (its set-up: inputs, config files and, for
`exact-sweep`, the cache fill), then runs whole rounds of the same
operations. `before_round` puts the library's caches in the state the round
is defined for and is not timed; `round` is timed and returns the outputs;
`check` compares them with `oracles` and returns (problems, failed
operations); `final_checks` runs once per process, untimed.

Library functions are always looked up on their module at call time
(`cumulants.moments_to_cumulants(...)`), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from freelevy import cli, cumulants, levy, measures, ncsym, partitions, rmt, transforms

import oracles


def clear_library_caches():
    """Empty every functools cache in the loaded freelevy modules."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "freelevy":
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def _close(a, b, rel) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


# -- cp-campaigns ---------------------------------------------------------------

CP_D = 200
CP_TRIALS = 2
MATCAUCHY_SEED = 23  # fixed: the operation's inputs do not depend on --seed
MATCAUCHY_TOL = 1e-2  # 1e-3 with independent draws at d=200, 5e-2 with one shared draw
ZSCORE_GATE = 4.0
INFORMATIONAL_FROM = 5  # moment orders >= this do not gate the verdict


class CpCampaigns:
    """`freelevy sim variation|mixed|matcauchy` through `cli.main`, in-process."""

    name = "cp-campaigns"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.dir = workdir / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        base = {"d": CP_D, "trials": CP_TRIALS, "N": 64, "t": 1.0, "lam": 1.0, "k_max": 5}
        mixed = dict(base, jump=[[-1.0, 0.5], [1.0, 0.5]], schedule=[8, 16, 32, 64],
                     decay_threshold=0.15)
        self.campaigns = [
            ("variation_k2", "variation", dict(base, jump=[[1.0, 1.0]], k=2)),
            # k_max 3 keeps k * k_max <= 10: a cold cumulant build to order <= 10
            ("variation_k3", "variation", dict(base, jump=[[1.0, 1.0]], k=3, k_max=3)),
            ("mixed_anticommutator", "mixed", dict(mixed, mode="anticommutator")),
            ("mixed_product", "mixed", dict(mixed, mode="product")),
        ]
        for _, _, cfg in self.campaigns:
            cfg["master_seed"] = rng.randrange(2**32)
        self.matcauchy = {
            "d": CP_D, "trials": 1, "master_seed": MATCAUCHY_SEED, "N": 1, "t": 1.0,
            "lam": 1.0, "jump": [[1.0, 1.0]], "k_max": 2,
            "B": [[[0.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]],
            "A": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]],
        }
        self.commands = []
        for stem, sub, cfg in self.campaigns + [("matcauchy", "matcauchy", self.matcauchy)]:
            path = self.dir / f"{stem}.config.json"
            path.write_text(json.dumps(cfg, sort_keys=True))
            self.commands.append((stem, ["sim", sub, "--config", str(path)]))
        self.ops_per_round = len(self.commands)
        self.trials_per_round = sum(cfg["trials"] for _, _, cfg in self.campaigns)
        self.limit = oracles.operator_semicircle_cauchy(
            np.array([[complex(*e) for e in row] for row in self.matcauchy["B"]]),
            [np.array(a) for a in self.matcauchy["A"]],
        )

    def before_round(self):
        # every round pays the cold cumulant build a fresh CLI process pays
        clear_library_caches()

    def _run(self, threads: int, tag: str) -> dict:
        out = {}
        for stem, argv in self.commands:
            out_dir = self.dir / tag / stem
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv + ["--out", str(out_dir), "--threads", str(threads)])
            out[stem] = {"code": code, "stdout": stdout.getvalue(), "dir": out_dir}
        return out

    def round(self) -> dict:
        return self._run(1, "threads1")

    @staticmethod
    def _report(entry, name):
        return json.loads((entry["dir"] / name).read_text())

    def bytes_written(self, outputs) -> int:
        total = 0
        for entry in outputs.values():
            total += len(entry["stdout"].encode())
            total += sum(p.stat().st_size for p in entry["dir"].iterdir())
        return total

    def check(self, outputs):
        problems, failed = [], 0
        for stem, _, cfg in self.campaigns:
            entry = outputs[stem]
            if stem.startswith("variation"):
                report = self._report(entry, f"variation_k{cfg['k']}.json")
                gated = [m for m in report["moments"] if m["order"] < INFORMATIONAL_FROM]
                verdict = all(abs(m["z"]) <= ZSCORE_GATE for m in gated) and (
                    report["extras"]["proxy_inversions"] <= 1
                )
            else:
                report = self._report(entry, f"{stem}.json")
                extras = report["extras"]
                verdict = extras["inversions"] <= 1 and extras["decay_ratio"] <= cfg["decay_threshold"]
            if report["passed"] != verdict:
                problems.append(f"{stem}: verdict {report['passed']} contradicts its z-scores")
            # exit 1 is the limit-law verdict, recorded and not a failed operation
            if entry["code"] != (0 if report["passed"] else 1):
                problems.append(f"{stem}: exit {entry['code']} for passed={report['passed']}")
        entry = outputs["matcauchy"]
        if entry["code"] != 0:
            problems.append(f"matcauchy: exit {entry['code']}")
        else:
            matrix = self._report(entry, "matcauchy.json")["matrix"]
            got = np.array([[complex(*e) for e in row] for row in matrix])
            if float(np.max(np.abs(got - self.limit))) > MATCAUCHY_TOL:
                failed += 1  # all X_i are one draw; see the README
        return problems, failed

    def verdicts(self, outputs) -> dict:
        return {stem: outputs[stem]["code"] for stem, _, _ in self.campaigns}

    def final_checks(self, outputs) -> list:
        problems = []
        clear_library_caches()
        other = self._run(2, "threads2")
        for stem in outputs:
            for path in sorted(outputs[stem]["dir"].iterdir()):
                if path.name.endswith(".manifest.json"):
                    continue  # manifests record durations and arguments
                twin = other[stem]["dir"] / path.name
                if not twin.is_file() or twin.read_bytes() != path.read_bytes():
                    problems.append(f"{stem}/{path.name} differs between --threads 1 and 2")
        cfg = rmt.SimConfig.from_json(self.campaigns[0][2])
        total = sum(rmt.sample_cp_increments(cfg, 0))
        target = rmt.variation_target(cfg, 1, 0)
        if float(np.max(np.abs(total - target))) > 1e-12 * max(1.0, float(np.max(np.abs(target)))):
            problems.append("sum of sample_cp_increments differs from variation_target(k=1)")
        return problems


# -- free-convolution -------------------------------------------------------------

GRID_NODES = 1001  # input grids and output points for the grid-kernel pairs
# L1 tolerances sit above the error of the 1001-node discretisation on every
# parameter in the seeded ranges (README: "Output checks")
L1_TOL = {"semicircle": 1e-3, "free_poisson": 5e-3, "arcsine": 4e-2, "bernoulli_semicircle": 2e-3}
VOICULESCU_TOL = 1e-3
MASS_TOL = 1e-9


def free_poisson_measure(lam: float, nodes: int) -> measures.GridMeasure:
    lo, hi = oracles.free_poisson_support(lam)
    grid = measures.DensityGrid.from_function(lo, hi, nodes, lambda xs: oracles.free_poisson_pdf(xs, lam))
    grid = measures.DensityGrid(grid.lo, grid.hi, grid.h, grid.values / grid.mass())
    return measures.GridMeasure([], grid)


class FreeConvolution:
    """Free additive convolution, convolution powers and the Voiculescu transform."""

    name = "free-convolution"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        v1, v2, vb = rng.uniform(0.5, 1.5, size=3)
        lam1, lam2 = rng.uniform(1.5, 2.5, size=2)
        t_power = rng.uniform(1.5, 2.5)
        sc1 = measures.semicircle(v1, n_points=GRID_NODES)
        sc2 = measures.semicircle(v2, n_points=GRID_NODES)
        mp1 = free_poisson_measure(lam1, GRID_NODES)
        mp2 = free_poisson_measure(lam2, GRID_NODES)
        bern = measures.bernoulli_symmetric()
        scb = measures.semicircle(vb, n_points=GRID_NODES)
        n = GRID_NODES
        # (label, call, closed-form density of the result)
        self.ops = [
            ("semicircle", lambda: transforms.free_convolve(sc1, sc2, n_points=n),
             lambda xs: oracles.semicircle_pdf(xs, v1 + v2)),
            ("free_poisson", lambda: transforms.free_convolve(mp1, mp2, n_points=n),
             lambda xs: oracles.free_poisson_pdf(xs, lam1 + lam2)),
            # atoms only, at the library's default output grid
            ("arcsine", lambda: transforms.free_convolve(bern, bern),
             lambda xs: oracles.arcsine_pdf(xs, 2.0)),
            ("bernoulli_semicircle", lambda: transforms.free_convolve(bern, scb, n_points=n),
             lambda xs: oracles.bernoulli_semicircle_pdf(xs, vb)),
            ("semicircle", lambda: transforms.boxplus_power(sc1, t_power, n_points=n),
             lambda xs: oracles.semicircle_pdf(xs, t_power * v1)),
            ("free_poisson", lambda: transforms.boxplus_power(mp1, t_power, n_points=n),
             lambda xs: oracles.free_poisson_pdf(xs, t_power * lam1)),
            ("arcsine", lambda: transforms.boxplus_power(bern, 2),
             lambda xs: oracles.arcsine_pdf(xs, 2.0)),
        ]
        height = transforms.inversion_cone_height(sc1)
        self.phi_points = np.array([x + 1j * height * (1.0 + 0.25 * j)
                                    for j, x in enumerate(rng.uniform(-3.0, 3.0, size=6))])
        self.phi_measure, self.phi_variance = sc1, v1
        self.ops_per_round = len(self.ops) + 1

    def before_round(self):
        pass

    def round(self):
        results = [call() for _, call, _ in self.ops]
        phi = transforms.voiculescu(self.phi_measure, self.phi_points)
        return results, phi

    def l1_errors(self, outputs) -> list:
        results, _ = outputs
        out = []
        for (label, _, ref), mu in zip(self.ops, results):
            xs = mu.grid.xs()
            out.append((label, oracles.l1_distance(xs, mu.grid.values, ref(xs)), mu))
        return out

    def check(self, outputs):
        problems = []
        for label, err, mu in self.l1_errors(outputs):
            if mu.atoms or abs(oracles.trapezoid_mass(mu.grid.values, mu.grid.h) - 1.0) > MASS_TOL:
                problems.append(f"{label}: output is not a unit-mass density")
            if not err <= L1_TOL[label]:
                problems.append(f"{label}: L1 distance {err:.3e} to the closed form")
        _, phi = outputs
        expected = self.phi_variance / self.phi_points
        rel = np.abs(phi - expected) / np.abs(expected)
        if not float(rel.max()) <= VOICULESCU_TOL:
            problems.append(f"voiculescu: relative error {float(rel.max()):.3e} against v / z")
        return problems, 0

    def final_checks(self, outputs) -> list:
        return []


# -- exact-cold and exact-sweep ---------------------------------------------------

# binary-exact atoms and masses, so float configs convert to Fractions exactly
_LOCATIONS = [-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]
_EXACT_LOCATIONS = [Fraction(-3, 2), Fraction(-1), Fraction(-2, 3), Fraction(-1, 3),
                    Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(4, 3), Fraction(2)]


def _binary_config(rng: random.Random, n_steps: int) -> rmt.SimConfig:
    locs = rng.sample(_LOCATIONS, 2)
    mass = rng.choice([0.25, 0.5, 0.75])
    return rmt.SimConfig(d=2, trials=1, master_seed=0, N=n_steps, t=1.0,
                         lam=rng.choice([0.25, 0.5, 0.75, 1.0]),
                         jump=[[locs[0], mass], [locs[1], 1.0 - mass]], k_max=2)


def _exact_law(rng: random.Random, atoms: int = 3):
    """Random probability law on exact rational atoms, masses in twelfths."""
    locs = rng.sample(_EXACT_LOCATIONS, atoms)
    cuts = sorted(rng.sample(range(1, 12), atoms - 1))
    masses = [Fraction(b - a, 12) for a, b in zip([0] + cuts, cuts + [12])]
    return list(zip(locs, masses))


def _law_moments(law, n: int) -> list:
    return [sum(m * x**k for x, m in law) for k in range(1, n + 1)]


def _finite_n_reference(cfg: rmt.SimConfig, k: int, orders: int) -> list:
    """Exact moments of sum_i X_(i,N)^k, from the oracle's own conversions."""
    delta = Fraction(cfg.lam) * Fraction(cfg.t) / cfg.N
    jump = [(Fraction(x), Fraction(m)) for x, m in cfg.jump]
    inc = oracles.cumulants_to_moments([delta * mk for mk in _law_moments(jump, orders * k)])
    nu = oracles.moments_to_cumulants([inc[j * k - 1] for j in range(1, orders + 1)])
    return [float(m) for m in oracles.cumulants_to_moments([cfg.N * x for x in nu])]


def _variation_reference(cfg: rmt.SimConfig, k: int, orders: int) -> list:
    """Limit law of the k-th variation: compound Poisson with jumps x^k."""
    jump = [(Fraction(x), Fraction(m)) for x, m in cfg.jump]
    scale = Fraction(cfg.lam) * Fraction(cfg.t)
    kappas = [scale * sum(m * x ** (k * j) for x, m in jump) for j in range(1, orders + 1)]
    return [float(m) for m in oracles.cumulants_to_moments(kappas)]


class ExactCold:
    """The first exact conversions a fresh process makes, up to the bound 12."""

    name = "exact-cold"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.cfg3 = _binary_config(rng, rng.randrange(8, 65))
        self.cfg2 = _binary_config(rng, rng.randrange(8, 65))
        self.m12 = _law_moments(_exact_law(rng, 4), 12)
        self.lam = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        self.ma = _law_moments([(abs(x), m) for x, m in _exact_law(rng)], 8)
        self.mb = _law_moments([(abs(x), m) for x, m in _exact_law(rng)], 8)
        self.ops_per_round = 6

    def before_round(self):
        clear_library_caches()

    def round(self):
        return [
            rmt.finite_n_power_sum_moments(self.cfg3, 3, 4),
            rmt.finite_n_power_sum_moments(self.cfg2, 2, 6),
            cumulants.moments_to_cumulants(self.m12),
            cumulants.cumulants_to_moments([self.lam] * 12),
            transforms.free_multiply_moments(self.ma, self.mb, 8),
            transforms.free_convolve_moments(self.ma[:7], self.mb[:7], 7),
        ]

    def check(self, outputs):
        fin3, fin2, kappas, narayana, product, summed = outputs
        problems = []
        if not _close(fin3, _finite_n_reference(self.cfg3, 3, 4), 1e-12):
            problems.append("finite_n_power_sum_moments pow:3 differs from the recursion")
        if not _close(fin2, _finite_n_reference(self.cfg2, 2, 6), 1e-12):
            problems.append("finite_n_power_sum_moments pow:2 differs from the recursion")
        if kappas != oracles.moments_to_cumulants(self.m12):
            problems.append("moments_to_cumulants differs from the recursion")
        if oracles.cumulants_to_moments(kappas) != self.m12:
            problems.append("moments_to_cumulants does not round-trip exactly")
        if narayana != oracles.free_poisson_moments(self.lam, 12):
            problems.append("cumulants_to_moments differs from the Narayana moments")
        if product != oracles.multiply_free_moments(self.ma, self.mb, 8):
            problems.append("free_multiply_moments differs from the S-transform")
        if summed != oracles.add_free_moments(self.ma[:7], self.mb[:7]):
            problems.append("free_convolve_moments differs from cumulant additivity")
        return problems, 0

    def final_checks(self, outputs) -> list:
        return []


SWEEP_TOP_ORDER = 10
SWEEP_LAWS = 64
JOINT_POWERS = [(1, 1), (1, 2), (2, 2), (1, 3), (1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2)]
COMPOSITIONS = [(1, 1, 1), (2, 1), (1, 2, 1), (2, 2), (1, 1, 1, 1), (3, 1, 2), (1, 1, 1, 1, 1)]
LETTERS = 4
IDENTITY_TOL = 1e-10
PUSHFORWARD_TOL = 1e-3


def _density_levy_measure(lo: float, hi: float, scale: float) -> "levy.LevyMeasure":
    grid = measures.DensityGrid.from_function(
        lo, hi, 801, lambda xs: scale * np.sin(math.pi * (xs - lo) / (hi - lo)) ** 2)
    return levy.LevyMeasure([], grid)


class ExactSweep:
    """Warm exact layers: triple calculus, joint cumulants, ncsym and `sim identity`."""

    name = "exact-sweep"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.laws = [(Fraction(rng.randrange(1, 7), rng.randrange(1, 4)), _exact_law(rng))
                     for _ in range(SWEEP_LAWS)]
        c1 = Fraction(rng.randrange(1, 4), 2)
        c2 = Fraction(rng.randrange(-3, 4) or 1, 3)
        self.maps = [levy.VariationMap.power(2), levy.VariationMap.power(3),
                     levy.VariationMap.polynomial([c1, c2])]
        self.map_fns = [lambda x: x**2, lambda x: x**3, lambda x: c1 * x + c2 * x * x]
        self.configs = [_binary_config(rng, rng.randrange(8, 65)) for _ in range(2)]
        self.variance = Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
        self.lam = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        self.joint_moments = _law_moments(_exact_law(rng), 6)
        self.joint_count = rng.randrange(2, 50)
        self.densities = []
        for _ in range(4):
            lo = rng.uniform(0.1, 0.6)
            self.densities.append(_density_levy_measure(lo, lo + rng.uniform(0.8, 1.6), rng.uniform(0.5, 2.0)))
        self.bp_lam = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        self.compositions = [partitions.Composition(list(c)) for c in COMPOSITIONS]
        self.identity_dir = workdir / self.name
        self.identity_dir.mkdir(parents=True, exist_ok=True)
        identity = {"d": 128, "trials": 2, "master_seed": rng.randrange(2**32), "N": 5,
                    "t": 1.0, "lam": 1.0, "jump": [[1.0, 1.0]], "k_max": 5, "k": 4}
        path = self.identity_dir / "identity.config.json"
        path.write_text(json.dumps(identity, sort_keys=True))
        self.identity_argv = ["sim", "identity", "--config", str(path),
                              "--out", str(self.identity_dir / "out"), "--threads", "1"]
        self.ops_per_round = (
            SWEEP_LAWS * (1 + 3 * 3 + 2) + 2 + 4 * len(self.configs) + len(JOINT_POWERS)
            + 2 * len(self.densities) + 2 + 3 + 4 + 3 * len(self.compositions) + 1
        )
        self.before_round()  # the cache fill: one conversion at the sweep's top order

    def before_round(self):
        cumulants.cumulants_to_moments([Fraction(1)] * SWEEP_TOP_ORDER)

    def round(self):
        out = {"laws": [], "roundtrips": []}
        for lam, law in self.laws:
            triple = levy.compound_poisson_triple(lam, measures.GridMeasure(list(law)))
            per_map = []
            for vm in self.maps:
                var = levy.variation_triple(triple, vm)
                kappas = levy.triple_to_cumulants(var, SWEEP_TOP_ORDER)
                per_map.append((kappas, cumulants.cumulants_to_moments(kappas)))
            out["laws"].append(per_map)
            out["roundtrips"].append((triple, levy.pair_to_triple(levy.triple_to_pair(triple))))
        out["catalan"] = cumulants.moments_to_cumulants(
            oracles.semicircle_moments(self.variance, SWEEP_TOP_ORDER))
        out["narayana"] = cumulants.cumulants_to_moments([self.lam] * SWEEP_TOP_ORDER)
        out["reference"] = [
            (rmt.predicted_variation_moments(cfg, 2, 5), rmt.predicted_variation_moments(cfg, 3, 3),
             rmt.finite_n_power_sum_moments(cfg, 2, 5), rmt.finite_n_power_sum_moments(cfg, 3, 3))
            for cfg in self.configs
        ]
        out["joint"] = [cumulants.power_sum_joint_cumulant(p, self.joint_moments, self.joint_count)
                        for p in JOINT_POWERS]
        out["density"] = [(levy.variation_triple(levy.GeneratingTriple(0.0, 0.0, rho), self.maps[0]),
                           levy.variation_triple(levy.GeneratingTriple(0.0, 0.0, rho), self.maps[1]))
                          for rho in self.densities]
        out["bp"] = (levy.bp_limit_check(levy.bernoulli_family(self.bp_lam), [10, 100, 1000]),
                     levy.bp_limit_check(levy.symmetric_pm_family(), [10, 100, 1000, 10000]))
        out["integral"] = [ncsym.stochastic_integral_poly(k) for k in (3, 4, 5)]
        out["psi"] = [ncsym.psi_poly(n) for n in (3, 4, 5, 6)]
        out["expand"] = [
            (ncsym.expand_letters(ncsym.p_basis(c.to_partition()), LETTERS),
             ncsym.distinct_neighbor_bruteforce(c, LETTERS))
            for c in self.compositions
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            out["identity_code"] = cli.main(self.identity_argv)
        return out

    @staticmethod
    def _flat_terms(poly) -> dict:
        """{tuple of generator indices: coefficient} of an NCPolynomial."""
        out = {}
        for word, coeff in poly.terms.items():
            flat = tuple(g[1] for g, e in word for _ in range(e))
            out[flat] = out.get(flat, 0) + coeff
        return {w: c for w, c in out.items() if c}

    def check(self, outputs):
        problems = []
        for (lam, law), per_map in zip(self.laws, outputs["laws"]):
            for fn, vm, (kappas, moments) in zip(self.map_fns, self.maps, per_map):
                expected = [lam * sum(m * fn(x) ** j for x, m in law)
                            for j in range(1, SWEEP_TOP_ORDER + 1)]
                if kappas != expected:
                    problems.append(f"variation {vm.name}: cumulants differ from lam * int p^j")
                elif moments != oracles.cumulants_to_moments(expected):
                    problems.append(f"variation {vm.name}: moments differ from the recursion")
        for triple, back in outputs["roundtrips"]:
            if (back.eta, back.a, back.rho.atoms) != (triple.eta, triple.a, triple.rho.atoms):
                problems.append("triple -> pair -> triple is not exact")
        expected = [0, self.variance] + [0] * (SWEEP_TOP_ORDER - 2)
        if outputs["catalan"] != expected:
            problems.append("moments_to_cumulants of Catalan moments is not (0, v, 0, ...)")
        if outputs["narayana"] != oracles.free_poisson_moments(self.lam, SWEEP_TOP_ORDER):
            problems.append("cumulants_to_moments differs from the Narayana moments")
        for cfg, (p2, p3, f2, f3) in zip(self.configs, outputs["reference"]):
            for got, ref in ((p2, _variation_reference(cfg, 2, 5)), (p3, _variation_reference(cfg, 3, 3)),
                             (f2, _finite_n_reference(cfg, 2, 5)), (f3, _finite_n_reference(cfg, 3, 3))):
                if not _close(got, ref, 1e-12):
                    problems.append("variation reference moments differ from the recursion")
        for powers, (total, defect) in zip(JOINT_POWERS, outputs["joint"]):
            r_one = oracles.mixed_cumulant_of_powers(powers, self.joint_moments)
            m_total = self.joint_moments[sum(powers) - 1]
            if (total, defect) != (self.joint_count * r_one, self.joint_count * (r_one - m_total)):
                problems.append(f"power_sum_joint_cumulant{powers} differs from the cumulant formula")
        for rho, images in zip(self.densities, outputs["density"]):
            xs, vals = rho.grid.xs(), rho.grid.values
            for fn, var in zip(self.map_fns[:2], images):
                pushed = var.rho.to_grid_measure()
                mass = oracles.trapezoid_mass(pushed.grid.values, pushed.grid.h)
                first = pushed.integrate(lambda y: y)
                ref_mass = oracles.trapezoid_mass(vals, rho.grid.h)
                ref_first = oracles.trapezoid_mass(fn(xs) * vals, rho.grid.h)
                if abs(mass - ref_mass) > PUSHFORWARD_TOL * ref_mass or (
                        abs(first - ref_first) > PUSHFORWARD_TOL * abs(ref_first)):
                    problems.append("density pushforward loses mass or first moment")
        bern, sym = outputs["bp"]
        half = self.bp_lam / 2
        if (bern.gamma, bern.sigma_atoms) != (float(half), [(1, half)]):
            problems.append("bp_limit_check misses the Bernoulli limit pair")
        if abs(sym.gamma) > 1e-12 or abs(sym.sigma_mass - 1.0) > 1e-5:
            problems.append("bp_limit_check misses the semicircle limit pair")
        for k, poly in zip((3, 4, 5), outputs["integral"]):
            if self._flat_terms(poly) != oracles.integral_terms(k):
                problems.append(f"stochastic_integral_poly({k}) differs from the composition sum")
        for n, poly in zip((3, 4, 5, 6), outputs["psi"]):
            if self._flat_terms(poly) != oracles.psi_terms(n):
                problems.append(f"psi_poly({n}) differs from the recursion")
        for c, (lhs, rhs) in zip(self.compositions, outputs["expand"]):
            if lhs != rhs:
                problems.append(f"expand_letters differs from the brute force for {c}")
        report = json.loads((self.identity_dir / "out" / "identity_k4.json").read_text())
        if outputs["identity_code"] != 0 or not report["extras"]["relative_error"] <= IDENTITY_TOL:
            problems.append(f"sim identity: relative error {report['extras']['relative_error']:.3e}")
        return problems, 0

    def final_checks(self, outputs) -> list:
        return []


WORKLOADS = {w.name: w for w in (CpCampaigns, FreeConvolution, ExactCold, ExactSweep)}
