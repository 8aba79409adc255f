"""Random-matrix realization of free compound-Poisson processes and the
simulation side of the verification suite.

The matrix model: s is a GUE matrix (semicircular in the large-d limit) and
e(t) is a diagonal jump process built from per-coordinate marks
(u_m, v_m) with u_m uniform on (0, 1] and v_m drawn from the jump law;
e(t) = diag(v_m 1{u_m <= lam t}) and the process is X(t) = s e(t) s.
Increments over a time grid share the same marks, so their sum telescopes
to s e(t) s by construction.

Randomness is counter-based (Philox keyed on the master seed, counter set
from the trial index and an object tag), so any number of threads produces
bit-identical streams and reports.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .cumulants import cumulants_to_moments, moments_to_cumulants
from .levy import VariationMap, compound_poisson_triple, triple_to_cumulants, variation_triple
from .measures import GridMeasure
from .ncsym import stochastic_integral_poly

HERMITIAN_TOL = 1e-12
IDENTITY_MAX_N = 6
IDENTITY_MAX_K = 5
HISTOGRAM_BINS = 64

_STREAM_TAGS = {
    "gue_a": 1,
    "marks_a": 2,
    "jumps_a": 3,
    "gue_b": 4,
    "marks_b": 5,
    "jumps_b": 6,
    "identity": 7,
}


# keys a config file carries besides the SimConfig fields, by `sim` subcommand
CONFIG_EXTRAS = {
    "variation": {"k"},
    "identity": {"k"},
    "mixed": {"mode", "schedule", "decay_threshold"},
    "matcauchy": {"A", "B"},
}
_ALL_EXTRAS = set().union(*CONFIG_EXTRAS.values())


class SimError(ValueError):
    """Configuration violates the model's preconditions."""


@dataclass
class SimConfig:
    d: int
    trials: int
    master_seed: int
    N: int = 1
    t: float = 1.0
    lam: float = 1.0
    jump: list = field(default_factory=lambda: [(1.0, 1.0)])
    k_max: int = 5
    alpha: float | None = None  # infinitesimal counterexample mode only

    def __post_init__(self):
        if self.d < 2:
            raise SimError(f"dimension must be >= 2, got {self.d}")
        if self.trials < 1:
            raise SimError(f"trials must be >= 1, got {self.trials}")
        if self.N < 1:
            raise SimError(f"time steps must be >= 1, got {self.N}")
        if not (0 < self.t <= 1):
            raise SimError(f"terminal time must be in (0, 1], got {self.t}")
        self.jump = [(float(x), float(m)) for x, m in self.jump]
        if any(abs(x) <= 1e-12 for x, _ in self.jump):
            raise SimError("jump atoms must be nonzero")
        total = sum(m for _, m in self.jump)
        if abs(total - 1.0) > 1e-9:
            raise SimError(f"jump masses must sum to 1, got {total}")
        if self.lam * self.t > 1 + 1e-12:
            raise SimError(
                f"normalized-rate convention needs lam * t <= 1, got {self.lam * self.t}"
            )

    def jump_measure(self) -> GridMeasure:
        return GridMeasure(list(self.jump))

    def to_json(self) -> dict:
        out = {
            "d": self.d,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "N": self.N,
            "t": self.t,
            "lam": self.lam,
            "jump": [[x, m] for x, m in self.jump],
            "k_max": self.k_max,
        }
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SimConfig":
        """The config in `data`; subcommand extras are skipped, other keys rejected."""
        if not isinstance(data, dict):
            raise SimError("a simulation config must be a JSON object")
        unknown = sorted(set(data) - set(cls.__dataclass_fields__) - _ALL_EXTRAS)
        if unknown:
            raise SimError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**{k: v for k, v in data.items() if k not in _ALL_EXTRAS})


def stream(master_seed: int, trial: int, tag: str) -> np.random.Generator:
    """Independent counter-based stream for (trial, object) pairs."""
    counter = [0, 0, np.uint64(trial), np.uint64(_STREAM_TAGS[tag])]
    return np.random.Generator(
        np.random.Philox(key=np.uint64(master_seed & (2**64 - 1)), counter=counter)
    )


def hermitize(h: np.ndarray) -> np.ndarray:
    return (h + h.conj().T) / 2.0


def is_hermitian(h: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return bool(np.max(np.abs(h - h.conj().T)) <= tol * max(1.0, np.max(np.abs(h))))


def sample_gue(d: int, rng) -> np.ndarray:
    """GUE matrix normalized so the spectrum approaches semicircle(var 1)."""
    if d < 2:
        raise SimError(f"dimension must be >= 2, got {d}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / (2.0 * math.sqrt(d))


def _draw_marks(config: SimConfig, trial: int, family: str = "a"):
    """(s, u, v) for one trial: the GUE factor and the jump marks."""
    s = sample_gue(config.d, stream(config.master_seed, trial, f"gue_{family}"))
    u = 1.0 - stream(config.master_seed, trial, f"marks_{family}").random(config.d)
    locs = np.array([x for x, _ in config.jump])
    masses = np.array([m for _, m in config.jump])
    cdf = np.cumsum(masses)
    draws = stream(config.master_seed, trial, f"jumps_{family}").random(config.d)
    v = locs[np.searchsorted(cdf, draws, side="right").clip(0, len(locs) - 1)]
    return s, u, v


def _increments(marks, config: SimConfig, n: int):
    """The n increments of X over an even grid of [0, t], one at a time,
    from one trial's (s, u, v) marks."""
    s, u, v = marks
    diagonals = [v * (u <= config.lam * (config.t * i / n)) for i in range(n + 1)]
    for prev, cur in zip(diagonals, diagonals[1:]):
        yield hermitize((s * (cur - prev)) @ s)


def _variation_matrix(marks, config: SimConfig, k: int) -> np.ndarray:
    """s e(t)^k s from one trial's (s, u, v) marks."""
    s, u, v = marks
    return hermitize((s * (v**k * (u <= config.lam * config.t))) @ s)


def sample_cp_increments(config: SimConfig, trial: int, family: str = "a"):
    """The N compound-Poisson increments of one trial, telescoping by design."""
    return list(_increments(_draw_marks(config, trial, family), config, config.N))


def variation_target(config: SimConfig, k: int, trial: int = 0, family: str = "a"):
    """s e(t)^k s, the matrix realization of the k-th variation at time t."""
    return _variation_matrix(_draw_marks(config, trial, family), config, k)


def power_sums(increments, k: int) -> np.ndarray:
    """Sum of k-th matrix powers of the increments (any iterable of them)."""
    if k < 1:
        raise SimError(f"power must be >= 1, got {k}")
    acc = None
    for x in increments:
        p = x
        for _ in range(k - 1):
            p = p @ x
        if acc is None:
            acc = np.zeros(p.shape, dtype=complex)
        acc += p
    if acc is None:
        raise SimError("power_sums needs at least one increment")
    return hermitize(acc)


def esd(h: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a Hermitian sample."""
    if not is_hermitian(h, tol=1e-10):
        raise SimError("esd expects a Hermitian matrix")
    return np.sort(np.linalg.eigvalsh(hermitize(h)))


def trace_moments(h: np.ndarray, n: int) -> list:
    """(1/d) tr(h^m) for m = 1..n, by repeated multiplication."""
    d = h.shape[0]
    out = []
    p = None
    for _ in range(n):
        p = h if p is None else p @ h
        out.append(float(np.trace(p).real) / d)
    return out


def matricial_cauchy(b_mat, a_mats, x_mats) -> np.ndarray:
    """(I (x) tr/d) applied to the inverse of B (x) 1 - sum A_i (x) X_i."""
    b_mat = np.asarray(b_mat, dtype=complex)
    k = b_mat.shape[0]
    if b_mat.shape != (k, k):
        raise SimError(f"matricial transform needs a square B, got shape {b_mat.shape}")
    imag_part = (b_mat - b_mat.conj().T) / 2j
    if np.min(np.linalg.eigvalsh(imag_part)) <= 0:
        raise SimError("matricial transform needs Im B positive definite")
    if len(a_mats) != len(x_mats):
        raise SimError("coefficient and sample lists must have equal length")
    if not x_mats:
        return np.linalg.inv(b_mat)
    d = x_mats[0].shape[0]
    big = np.kron(b_mat, np.eye(d))
    for a, x in zip(a_mats, x_mats):
        a = np.asarray(a, dtype=complex)
        if a.shape != (k, k) or np.shape(x) != (d, d):
            raise SimError(
                f"matricial transform needs each A_i of shape {(k, k)} (that of B) and "
                f"each X_i of shape {(d, d)}, got A_i {a.shape} and X_i {np.shape(x)}"
            )
        if not (is_hermitian(a, tol=1e-10) and is_hermitian(x, tol=1e-10)):
            raise SimError("matricial transform needs Hermitian coefficients/samples")
        big -= np.kron(a, x)
    inv = np.linalg.inv(big)
    out = np.empty((k, k), dtype=complex)
    for p in range(k):
        for q in range(k):
            out[p, q] = np.trace(inv[p * d : (p + 1) * d, q * d : (q + 1) * d]) / d
    return out


# -- reports ---------------------------------------------------------------------


@dataclass
class SimReport:
    config: dict
    moments: list
    histograms: dict
    extras: dict
    passed: bool
    version: str = __version__

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "moments": self.moments,
            "histograms": self.histograms,
            "extras": self.extras,
            "passed": self.passed,
            "version": self.version,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)

    def summary(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        zs = [abs(m["z"]) for m in self.moments if m.get("z") is not None]
        parts = [flag]
        if "k" in self.extras:
            parts.append(f"k={self.extras['k']}")
        if zs:
            parts.append(f"maxz={max(zs):.2f}")
        if "relative_error" in self.extras:
            parts.append(f"relerr={self.extras['relative_error']:.2e}")
        if "decay_ratio" in self.extras:
            parts.append(f"decay={self.extras['decay_ratio']:.3f}")
        parts.append(f"n={self.config.get('N', '-')}")
        return " ".join(parts)


def _histogram(values) -> dict:
    values = np.asarray(values, dtype=float).reshape(-1)
    counts, edges = np.histogram(values, bins=HISTOGRAM_BINS)
    return {"bin_edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}


def histogram_csv_lines(hist: dict):
    yield "bin_lo,bin_hi,count"
    edges, counts = hist["bin_edges"], hist["counts"]
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        yield f"{lo!r},{hi!r},{c}"


def _doubling_schedule(n: int):
    out, cur = [], 4
    while cur < n:
        out.append(cur)
        cur *= 2
    out.append(n)
    return out if out[0] <= n else [n]


def _run_trials(fn, trials: int, threads: int):
    if threads <= 1:
        return [fn(i) for i in range(trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(trials)))


def predicted_variation_moments(config: SimConfig, k: int, orders: int) -> list:
    """Exact moments of the k-th variation at time t via the triple pipeline."""
    triple = compound_poisson_triple(config.lam, config.jump_measure())
    var = variation_triple(triple, VariationMap.power(k))
    kappas = [config.t * kappa for kappa in triple_to_cumulants(var, orders)]
    return [float(m) for m in cumulants_to_moments(kappas)]


def finite_n_power_sum_moments(config: SimConfig, k: int, orders: int) -> list:
    """Exact moments of sum_i X_(i,N)^k at finite N (the pre-limit law).

    The law is the N-fold free convolution power of the pushforward of one
    increment's law under x^k; it differs from the limiting variation law at
    order O(1/N), e.g. its first moment is lam t + (lam t int x d jump)^2 / N
    plus higher corrections. Reports carry it as a reference so the
    systematic truncation gap is visible next to the Monte Carlo error.
    """
    from fractions import Fraction

    def rational(x):
        return Fraction(x).limit_denominator(10**12)

    delta = rational(config.lam) * rational(config.t) / config.N

    def jump_moment(m):
        return sum(rational(mass) * rational(x) ** m for x, mass in config.jump)

    inc_moments = cumulants_to_moments(
        [delta * jump_moment(m) for m in range(1, orders * k + 1)]
    )
    nu_moments = [inc_moments[j * k - 1] for j in range(1, orders + 1)]
    nu_kappas = moments_to_cumulants(nu_moments)
    return [
        float(m) for m in cumulants_to_moments([config.N * x for x in nu_kappas])
    ]


def verify_variation(config: SimConfig, k: int, threads: int = 1) -> SimReport:
    """Moments of sum X_i^k against the exact variation law, plus the
    Frobenius-distance proxy to s e(t)^k s along a doubling schedule."""
    orders = config.k_max
    predicted = predicted_variation_moments(config, k, orders)
    finite_reference = finite_n_power_sum_moments(config, k, orders)
    schedule = _doubling_schedule(config.N)

    def one_trial(trial):
        marks = _draw_marks(config, trial)
        target = _variation_matrix(marks, config, k)
        proxies = []
        for n in schedule:
            acc = power_sums(_increments(marks, config, n), k)
            proxies.append(
                float(np.linalg.norm(acc - target)) / math.sqrt(config.d)
            )
        return trace_moments(acc, orders), proxies, esd(acc)

    results = _run_trials(one_trial, config.trials, threads)
    moment_rows = np.array([r[0] for r in results])
    proxy_rows = np.array([r[1] for r in results])
    eigs = np.concatenate([r[2] for r in results])

    moments = []
    all_pass = True
    for j in range(orders):
        mean = float(moment_rows[:, j].mean())
        stderr = (
            float(moment_rows[:, j].std(ddof=1)) / math.sqrt(config.trials)
            if config.trials > 1
            else 0.0
        )
        if stderr > 0:
            z = (mean - predicted[j]) / stderr
        else:
            z = 0.0 if abs(mean - predicted[j]) <= 1e-12 else math.inf
        informational = j + 1 > 4
        ok = abs(z) <= 4.0
        if not informational and not ok:
            all_pass = False
        moments.append(
            {
                "order": j + 1,
                "mean": mean,
                "stderr": stderr,
                "predicted": predicted[j],
                "z": z,
                "informational": informational,
            }
        )

    proxy_means = proxy_rows.mean(axis=0)
    inversions = int(np.sum(np.diff(proxy_means) > 0))
    if inversions > 1:
        all_pass = False

    extras = {
        "k": k,
        "schedule": schedule,
        "proxy_norms": [float(p) for p in proxy_means],
        "proxy_inversions": inversions,
        "finite_n_reference": finite_reference,
    }
    return SimReport(
        config=config.to_json(),
        moments=moments,
        histograms={"power_sum_spectrum": _histogram(eigs)},
        extras=extras,
        passed=all_pass,
    )


def _neighbor_distinct_sum(increments, k: int) -> np.ndarray:
    """Brute-force left side: sum over neighbor-distinct index tuples."""
    d = increments[0].shape[0]
    total = np.zeros((d, d), dtype=complex)
    n = len(increments)

    def rec(depth, prev, prod):
        nonlocal total
        if depth == k:
            total += prod
            return
        for i in range(n):
            if i != prev:
                rec(depth + 1, i, prod @ increments[i])

    for i in range(n):
        rec(1, i, increments[i])
    return total


def verify_integral_identity(config: SimConfig, k: int, threads: int = 1) -> SimReport:
    """Both sides of the k-fold integral identity on random Hermitian
    increments; an exact algebraic identity at every finite dimension."""
    if config.N > IDENTITY_MAX_N or k > IDENTITY_MAX_K:
        raise SimError(
            f"identity check bounded by N <= {IDENTITY_MAX_N}, k <= {IDENTITY_MAX_K}"
        )
    poly = stochastic_integral_poly(k)

    def one_trial(trial):
        rng = stream(config.master_seed, trial, "identity")
        increments = [
            sample_gue(config.d, rng) / config.N for _ in range(config.N)
        ]
        lhs = _neighbor_distinct_sum(increments, k)
        values = {("y", j): power_sums(increments, j) for j in range(1, k + 1)}
        rhs = poly.evaluate(values, one=np.eye(config.d))
        scale = np.linalg.norm(lhs)
        err = np.linalg.norm(lhs - rhs) / (scale if scale > 0 else 1.0)
        return err, np.linalg.eigvalsh(hermitize(lhs))

    results = _run_trials(one_trial, config.trials, threads)
    errs = [r[0] for r in results]
    eigs = np.concatenate([r[1] for r in results])
    worst = float(max(errs))
    return SimReport(
        config=config.to_json(),
        moments=[],
        histograms={"lhs_spectrum": _histogram(eigs)},
        extras={"k": k, "relative_error": worst, "per_trial_errors": [float(e) for e in errs]},
        passed=worst <= 1e-10,
    )


def counterexample_rows(alpha: float, ns, t: float = 1.0) -> list:
    """Quadratic sums of the infinitesimal-but-divergent scalar array.

    X_(i,N) = 1/N + (-1)^i / N^alpha for i = 1..[2 N t]; the quadratic sum
    equals [2Nt]/N^2 + s/N^(1+alpha) * 2 + [2Nt]/N^(2 alpha) exactly, with
    s = -1 for odd counts and 0 for even, and grows like 2 t N^(1-2 alpha).
    """
    rows = []
    for n in ns:
        m = int(2 * n * t)
        sign_sum = -1 if m % 2 else 0
        value = (
            m / n**2 + 2.0 * sign_sum / (n * n**alpha) + m / n ** (2 * alpha)
        )
        reference = 2.0 * t * n ** (1.0 - 2.0 * alpha)
        rows.append(
            {
                "N": int(n),
                "quadratic_sum": value,
                "reference": reference,
                "ratio": value / reference if reference else math.inf,
            }
        )
    return rows


def mixed_decay(
    config_a: SimConfig,
    config_b: SimConfig | None = None,
    mode: str = "anticommutator",
    schedule=None,
    threads: int = 1,
    decay_threshold: float = 0.15,
) -> SimReport:
    """Second moment of mixed sums of two independent increment families
    along a doubling schedule; passes when it decays below the threshold.

    The two families share d, N (the schedule's default) and trials; a
    config_b that differs in any of them raises SimError. mode
    "square-of-sum" is the infinitesimal counterexample: it ignores
    config_b and reports the exact scalar quadratic sums for alpha from
    config_a, which diverge like 2 t N^(1 - 2 alpha)."""
    if mode == "square-of-sum":
        if config_a.alpha is None:
            raise SimError("counterexample mode needs the alpha field")
        ns = schedule or [100, 10000]
        rows = counterexample_rows(config_a.alpha, ns, config_a.t)
        ok = all(abs(r["ratio"] - 1.0) <= 0.05 for r in rows)
        return SimReport(
            config=config_a.to_json(),
            moments=[],
            histograms={},
            extras={"mode": mode, "table": rows},
            passed=ok,
        )

    if mode not in ("anticommutator", "product"):
        raise SimError(f"unknown mixed mode {mode!r}")
    config_b = config_b or config_a
    for name in ("d", "N", "trials"):
        va, vb = getattr(config_a, name), getattr(config_b, name)
        if va != vb:
            raise SimError(
                f"mixed_decay needs one {name} for both families, got {va} and {vb}"
            )
    ns = schedule or _doubling_schedule(config_a.N)[1:] or [config_a.N]

    def one_trial(trial):
        marks_a = _draw_marks(config_a, trial, "a")
        marks_b = _draw_marks(config_b, trial, "b")
        out = []
        for n in ns:
            acc = np.zeros_like(marks_a[0])
            pairs = zip(_increments(marks_a, config_a, n), _increments(marks_b, config_b, n))
            for x, y in pairs:
                acc += x @ y + y @ x if mode == "anticommutator" else x @ y
            out.append(float(np.trace(acc @ acc.conj().T).real) / config_a.d)
        return out

    rows = np.array(_run_trials(one_trial, config_a.trials, threads))
    means = rows.mean(axis=0)
    inversions = int(np.sum(np.diff(means) > 0))
    ratio = float(means[-1] / means[0]) if means[0] > 0 else 0.0
    passed = inversions <= 1 and ratio <= decay_threshold
    return SimReport(
        config=config_a.to_json(),
        moments=[],
        histograms={},
        extras={
            "mode": mode,
            "schedule": list(ns),
            "m2_by_n": [float(m) for m in means],
            "decay_ratio": ratio,
            "inversions": inversions,
        },
        passed=passed,
    )


__all__ = [
    "CONFIG_EXTRAS",
    "SimConfig",
    "SimError",
    "SimReport",
    "counterexample_rows",
    "esd",
    "finite_n_power_sum_moments",
    "hermitize",
    "histogram_csv_lines",
    "is_hermitian",
    "matricial_cauchy",
    "mixed_decay",
    "power_sums",
    "predicted_variation_moments",
    "sample_cp_increments",
    "sample_gue",
    "stream",
    "trace_moments",
    "variation_target",
    "verify_integral_identity",
    "verify_variation",
]
