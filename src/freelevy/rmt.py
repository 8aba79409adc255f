"""Random-matrix realization of free compound-Poisson processes and the
simulation side of the verification suite.

The matrix model: s is a GUE matrix (semicircular in the large-d limit) and
e(t) is a diagonal jump process built from per-coordinate marks
(u_m, v_m) with u_m uniform on (0, 1] and v_m drawn from the jump law;
e(t) = diag(v_m 1{u_m <= lam t}) and the process is X(t) = s e(t) s.
Increments over a time grid share the same marks, and `_fire_steps` puts
each coordinate with u_m <= lam t in exactly one step (the grid's last
level is lam t itself), so their sum telescopes to s e(t) s for every u.

Randomness is counter-based (Philox keyed on the master seed, counter set
from the trial index and an object tag), so any number of threads produces
bit-identical streams and reports.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from .cumulants import cumulants_to_moments, moments_to_cumulants
from .levy import VariationMap, compound_poisson_triple, triple_to_cumulants, variation_triple
from .measures import (
    GridMeasure,
    NumericError,
    _exact_atom_moments,
    _is_integer,
    _is_real,
    _is_real_pairs,
)
from .ncsym import stochastic_integral_poly

HERMITIAN_TOL = 1e-12
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


# keys a config carries besides the SimConfig fields, by `sim` subcommand: campaign keywords
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
        for name in ("d", "trials", "master_seed", "N", "k_max"):
            if not _is_integer(getattr(self, name)):
                raise SimError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("t", "lam") + (("alpha",) if self.alpha is not None else ()):
            if not _is_real(getattr(self, name)):
                raise SimError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not _is_real_pairs(self.jump):
            raise SimError(f"jump must be [atom, mass] pairs of real numbers, got {self.jump!r}")
        if self.d < 2:
            raise SimError(f"dimension must be >= 2, got {self.d}")
        if self.trials < 1:
            raise SimError(f"trials must be >= 1, got {self.trials}")
        if self.N < 1:
            raise SimError(f"time steps must be >= 1, got {self.N}")
        if not (0 < self.t <= 1):
            raise SimError(f"terminal time must be in (0, 1], got {self.t}")
        if not self.lam > 0:
            raise SimError(f"jump rate lam must be > 0, got {self.lam}")
        self.jump = [(float(x), float(m)) for x, m in self.jump]
        if not all(abs(x) > 1e-12 for x, _ in self.jump):
            raise SimError("jump atoms must be nonzero")
        if not all(m >= 0 for _, m in self.jump):
            raise SimError("jump masses must be >= 0")
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
        missing = sorted({"d", "trials", "master_seed"} - set(data))
        if missing:
            raise SimError(f"config lacks the required keys: {', '.join(missing)}")
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


def _fire_steps(u, config: SimConfig, n: int) -> np.ndarray:
    """The step i in 1..n whose increment carries coordinate j: the least i
    with u_j <= lam t (i / n), and n + 1 for a coordinate that never fires.
    Level n is lam t exactly. This is the one comparison of the marks with
    the time grid."""
    levels = [config.lam * config.t * (i / n) for i in range(n + 1)]
    return np.searchsorted(levels, u, side="left")


def _increments(marks, config: SimConfig, n: int):
    """The n increments X_i = s D_i s of X over an even grid of [0, t], one
    at a time, from one trial's (s, u, v) marks."""
    s, u, v = marks
    steps = _fire_steps(u, config, n)
    for i in range(1, n + 1):
        yield hermitize((s * np.where(steps == i, v, 0.0)) @ s)


def _fired(config: SimConfig, trial: int, family: str = "a"):
    """(s_F, (u, v)) for one trial of a family: s_F holds the columns of s at
    the coordinates F that fire by time t, in increasing u, and (u, v) their
    marks. Along this order `_fire_steps` is non-decreasing on every grid,
    so the coordinates of each step are one contiguous block."""
    s, u, v = _draw_marks(config, trial, family)
    index = np.flatnonzero(_fire_steps(u, config, 1) == 1)
    index = index[np.argsort(u[index], kind="stable")]
    return s[:, index], (u[index], v[index])


def _step_kernel(word, grams, config: SimConfig, n: int) -> list:
    """The middle factor X_n of the sum over the n steps of x_i^(1) ... x_i^(m),
    the increments of the families whose fired marks (u, v) make up `word`,
    as its step blocks (rows, cols, X_i): slices of the fired coordinates of
    families 1 and m and the block there. `grams` holds G_12, ..., G_(m-1)m,
    where G_l(l+1) = s_l,F* s_(l+1),F.

    Increment i of family l is s_l D_(l,i) s_l, so the sum is s_1,F X_n s_m,F*
    (`_sandwich`) with X_n = D_1 (G_12 o S_12) D_2 ... (G_(m-1)m o S_(m-1)m) D_m,
    where D_l = diag(v_l) and S_l(l+1)[j, j'] is 1 when coordinate j of
    family l and j' of family l+1 fire in the same step. In fired order
    X_n is block-diagonal, X_i = D_(1,i) G_12[i, i] D_(2,i) ... D_(m,i), and
    a step where some family does not fire has no block. The blocks cost
    O(m^3 / n) together, against the O(d^3) of a dense product."""
    cuts = [np.searchsorted(_fire_steps(u, config, n), np.arange(n + 1), side="right")
            for u, _ in word]
    blocks = []
    for i in np.flatnonzero(np.all(np.diff(cuts, axis=1) > 0, axis=0)):
        spans = [slice(c[i], c[i + 1]) for c in cuts]
        block = np.diag(word[0][1][spans[0]])
        for gram, prev, span, (_, v) in zip(grams, spans, spans[1:], word[1:]):
            block = block @ gram[prev, span] * v[span]
        blocks.append((spans[0], spans[-1], block))
    return blocks


def _sandwich(first, blocks, last) -> np.ndarray:
    """first X last*, the d x d matrix of the middle factor X given by its
    step blocks between the fired columns `first` and `last`."""
    right = np.zeros((first.shape[1], last.shape[0]), dtype=complex)
    for rows, cols, block in blocks:
        right[rows] = block @ last[:, cols].conj().T
    return first @ right


def _trace_of_square(a) -> float:
    """Re tr(a a), with no temporary."""
    return float(np.einsum("ij,ji->", a, a).real)


def _variation_matrix(marks, config: SimConfig, k: int) -> np.ndarray:
    """s e(t)^k s from one trial's (s, u, v) marks: e(t) holds the
    coordinates that fire on the one-step grid."""
    s, u, v = marks
    return hermitize((s * (v**k * (_fire_steps(u, config, 1) == 1))) @ s)


def sample_cp_increments(config: SimConfig, trial: int, family: str = "a"):
    """The N compound-Poisson increments of one trial, telescoping by design."""
    return list(_increments(_draw_marks(config, trial, family), config, config.N))


def variation_target(config: SimConfig, k: int, trial: int = 0, family: str = "a"):
    """s e(t)^k s, the matrix realization of the k-th variation at time t."""
    return _variation_matrix(_draw_marks(config, trial, family), config, k)


def power_sums(increments, k: int) -> np.ndarray:
    """Sum of k-th matrix powers of the increments (any iterable of them)."""
    return _power_sum_ladder(increments, k)[-1]


def _power_sum_ladder(increments, k: int) -> list:
    """[power_sums(increments, j) for j in 1..k]: each increment's powers are
    running products, so k powers cost k - 1 matrix products."""
    if k < 1:
        raise SimError(f"power must be >= 1, got {k}")
    sums = None
    for x in increments:
        if sums is None:
            sums = [np.zeros(x.shape, dtype=complex) for _ in range(k)]
        p = x
        sums[0] += p
        for acc in sums[1:]:
            p = p @ x
            acc += p
    if sums is None:
        raise SimError("power_sums needs at least one increment")
    for j, acc in enumerate(sums):
        sums[j] = hermitize(acc)  # in place: one sum at a time is held twice
    return sums


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
        payload = self.to_json()
        try:
            return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        except ValueError:
            raise NumericError(
                f"report field {_non_finite_field(payload)} is not finite"
            ) from None

    def summary(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        zs = [abs(m["z"]) for m in self.moments if m.get("z") is not None]
        parts = [flag]
        if "k" in self.extras:
            parts.append(f"k={self.extras['k']}")
        if zs:
            parts.append(f"maxz={max(zs):.2f}")
        if any("z_reason" in m for m in self.moments):
            parts.append("z=null")
        if "relative_error" in self.extras:
            parts.append(f"relerr={self.extras['relative_error']:.2e}")
        if "decay_ratio" in self.extras:
            parts.append(f"decay={self.extras['decay_ratio']:.3f}")
        parts.append(f"n={self.config.get('N', '-')}")
        return " ".join(parts)


def _non_finite_field(value, path: str = "") -> str | None:
    """The path of the first non-finite float in a JSON value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite_field(item, sub) for sub, item in items)), None)


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
    return out


def _run_trials(fn, trials: int, threads: int):
    if not (_is_integer(threads) and threads >= 1):
        raise SimError(f"threads must be a positive integer, got {threads!r}")
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
    lam, t, the atoms and the masses enter as the exact values of their
    floats, so each output is its exact moment rounded once.
    """
    delta = Fraction(config.lam) * Fraction(config.t) / config.N
    jump = [(Fraction(x), Fraction(mass)) for x, mass in config.jump]
    inc_moments = cumulants_to_moments(
        [delta * m for m in _exact_atom_moments(jump, orders * k)]
    )
    nu_moments = [inc_moments[j * k - 1] for j in range(1, orders + 1)]
    nu_kappas = moments_to_cumulants(nu_moments)
    return [
        float(m) for m in cumulants_to_moments([config.N * x for x in nu_kappas])
    ]


NO_SPREAD = "no spread across the trials, and the mean misses the prediction"


def _z_score(mean: float, stderr: float, predicted: float):
    """(mean - predicted) / stderr; with no spread, 0 on a match and None (a
    JSON null, for the reason NO_SPREAD) otherwise."""
    if stderr > 0:
        return (mean - predicted) / stderr
    return 0.0 if abs(mean - predicted) <= 1e-12 else None


def verify_variation(config: SimConfig, k: int = 2, threads: int = 1) -> SimReport:
    """Moments of sum X_i^k against the exact variation law, plus the
    Frobenius-distance proxy to s e(t)^k s along a doubling schedule.
    The proxy is taken over the fired coordinates F: with the step kernel's
    middle factor X_n and Delta_n = herm(X_n) - D^k, block-diagonal,
    ||s_F Delta_n s_F*||^2 = tr((G_F Delta_n)^2), G_F = s_F* s_F, which
    matches the dense d x d norm to 1e-12 relative. Only the spectrum at
    the last point forms the d x d sum s_F herm(X_N) s_F*.
    The z-scores divide by the across-trial standard error, so it needs
    at least 2 trials. The sample moments (1/d) tr(S^m) are the means of
    the m-th powers of the eigenvalues that also make the spectrum
    histogram; they match repeated matrix products to 1e-15 relative."""
    if not _is_integer(k):
        raise SimError(f"k must be an integer, got {k!r}")
    if config.trials < 2:
        raise SimError(f"a standard error needs at least 2 trials, got {config.trials}")
    orders = config.k_max
    try:
        predicted = predicted_variation_moments(config, k, orders)
        finite_reference = finite_n_power_sum_moments(config, k, orders)
    except (OverflowError, NumericError) as exc:
        raise NumericError(f"the predicted moments overflow the floats: {exc}") from None
    schedule = _doubling_schedule(config.N)

    def one_trial(trial):
        cols, marks = _fired(config, trial)
        gram = cols.conj().T @ cols
        product = np.empty_like(gram)  # Delta_n G, every row rewritten at each n
        proxies = []
        for n in schedule:
            blocks = [(rows, rows, hermitize(block)) for rows, _, block
                      in _step_kernel([marks] * k, [gram] * (k - 1), config, n)]
            for rows, _, block in blocks:
                np.matmul(block - np.diag(marks[1][rows] ** k), gram[rows], out=product[rows])
            proxies.append(math.sqrt(max(_trace_of_square(product), 0.0) / config.d))
        del gram, product
        acc = _sandwich(cols, blocks, cols)
        del cols
        eigs = esd(acc)
        return [float(np.mean(eigs**m)) for m in range(1, orders + 1)], proxies, eigs

    results = _run_trials(one_trial, config.trials, threads)
    moment_rows = np.array([r[0] for r in results])
    proxy_rows = np.array([r[1] for r in results])
    eigs = np.concatenate([r[2] for r in results])

    moments = []
    all_pass = True
    for j in range(orders):
        mean = float(moment_rows[:, j].mean())
        stderr = float(moment_rows[:, j].std(ddof=1)) / math.sqrt(config.trials)
        z = _z_score(mean, stderr, predicted[j])
        informational = j + 1 > 4
        ok = z is not None and abs(z) <= 4.0
        if not informational and not ok:
            all_pass = False
        entry = {
            "order": j + 1,
            "mean": mean,
            "stderr": stderr,
            "predicted": predicted[j],
            "z": z,
            "informational": informational,
        }
        if z is None:
            entry["z_reason"] = NO_SPREAD
        moments.append(entry)

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
    """Left side: the sum of X_(i1) ... X_(ik) over index tuples with
    distinct neighbors, by the transfer recursion E_1[i] = X_i,
    E_j[i] = (sum_l E_(j-1)[l] - E_(j-1)[i]) X_i; the sum is sum_i E_k[i].

    E_j[i] sums the products of length j that end in X_i, so (k-1) N matrix
    products replace the N (N-1)^(k-1) tuples."""
    ends = list(increments)
    for _ in range(k - 1):
        total = sum(ends)
        ends = [(total - e) @ x for e, x in zip(ends, increments)]
    return sum(ends)


def verify_integral_identity(config: SimConfig, k: int = 2, threads: int = 1) -> SimReport:
    """Both sides of the k-fold integral identity on random Hermitian
    increments; an exact algebraic identity at every finite dimension."""
    if not _is_integer(k):
        raise SimError(f"k must be an integer, got {k!r}")
    if k > IDENTITY_MAX_K:
        raise SimError(f"identity check bounded by k <= {IDENTITY_MAX_K}")
    poly = stochastic_integral_poly(k)

    def one_trial(trial):
        rng = stream(config.master_seed, trial, "identity")
        increments = [
            sample_gue(config.d, rng) / config.N for _ in range(config.N)
        ]
        lhs = _neighbor_distinct_sum(increments, k)
        values = {("y", j): y for j, y in enumerate(_power_sum_ladder(increments, k), 1)}
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


def _free_mixed_m2(m1, m2, n: int, mode: str):
    """tau(A A*) for A the sum over n steps of x_i y_i (mode "product") or
    of x_i y_i + y_i x_i (mode "anticommutator"), where the x_i and y_i are
    free and of one law with first and second moments m1 and m2.

    A term with i != j is a word in four distinct free variables, so its
    value is m1^4; at i = j, tau(x y y x) = m2^2 and tau(x y x y) =
    2 m1^2 m2 - m1^4. Exact on exact inputs."""
    if mode == "product":
        return n * m2**2 + n * (n - 1) * m1**4
    return 2 * n * ((2 * m1**2 * m2 - m1**4) + m2**2) + 4 * n * (n - 1) * m1**4


def _mixed_norm(blocks, gram_a, gram_b, cross, mode: str) -> float:
    """||A||^2 for A = s_a,F X s_b,F* (mode "product") or ||A + A*||^2 (mode
    "anticommutator"), from the step blocks of X, G_a = s_a,F* s_a,F,
    G_b = s_b,F* s_b,F and C = s_a,F* s_b,F:
    ||A||^2 = <G_a X, X G_b> and ||A + A*||^2 = 2 ||A||^2 + 2 Re tr((X* C)^2)."""
    left = np.zeros(cross.shape, dtype=complex)
    right = np.zeros(cross.shape, dtype=complex)
    for rows, cols, block in blocks:
        left[:, cols] = gram_a[:, rows] @ block
        right[rows] = block @ gram_b[cols]
    norm = float(np.vdot(left, right).real)
    if mode == "product":
        return norm
    del left, right
    product = np.zeros_like(gram_b)
    for rows, cols, block in blocks:
        product[cols] = block.conj().T @ cross[rows]
    return 2 * norm + 2 * _trace_of_square(product)


def mixed_decay(
    config: SimConfig,
    mode: str = "anticommutator",
    schedule=None,
    threads: int = 1,
    decay_threshold: float = 0.15,
) -> SimReport:
    """Second moment of mixed sums of two independent increment families
    along a doubling schedule; passes when it decays from a positive value
    at the first schedule point to below the threshold times that value.
    The report also carries the free large-d value of m2 at each point and
    z-scores against it (null with one trial, and null with the reason
    NO_SPREAD when the trials agree and miss it); they do not enter the verdict.
    m2 = (1/d) tr(S S*) is the squared Frobenius norm of S, taken over the
    fired coordinates from the step kernel's middle factor (`_mixed_norm`)
    with no d x d matrix; it matches the dense norm to 1e-12 relative.

    Both families follow the law of `config`; family b draws from the
    config's own "b" streams, independent of family a. mode
    "square-of-sum" is the infinitesimal counterexample: it reports the
    exact scalar quadratic sums for the config's alpha, which diverge like
    2 t N^(1 - 2 alpha)."""
    if not _is_real(decay_threshold):
        raise SimError(f"decay_threshold must be a real number, got {decay_threshold!r}")
    if schedule is not None and not (
        isinstance(schedule, (list, tuple)) and all(_is_integer(n) and n > 0 for n in schedule)
    ):
        raise SimError(f"schedule must be a list of positive integers, got {schedule!r}")
    if mode == "square-of-sum":
        if config.alpha is None:
            raise SimError("counterexample mode needs the alpha field")
        ns = schedule or [100, 10000]
        rows = counterexample_rows(config.alpha, ns, config.t)
        ok = all(abs(r["ratio"] - 1.0) <= 0.05 for r in rows)
        return SimReport(
            config=config.to_json(),
            moments=[],
            histograms={},
            extras={"mode": mode, "table": rows},
            passed=ok,
        )

    if mode not in ("anticommutator", "product"):
        raise SimError(f"unknown mixed mode {mode!r}")
    ns = schedule or _doubling_schedule(config.N)[1:] or [config.N]
    # the free large-d law: one step is free compound Poisson of rate
    # delta = lam t / n, so m1 = delta mu1 and m2 = delta mu2 + (delta mu1)^2
    try:
        mu1, mu2 = (sum(mass * x**p for x, mass in config.jump) for p in (1, 2))
        predicted = []
        for n in ns:
            delta = config.lam * config.t / n
            predicted.append(
                _free_mixed_m2(delta * mu1, delta * mu2 + (delta * mu1) ** 2, n, mode)
            )
    except (OverflowError, NumericError) as exc:
        raise NumericError(f"the predicted m2 overflows the floats: {exc}") from None

    def one_trial(trial):
        cols_a, marks_a = _fired(config, trial, "a")
        gram_a = cols_a.conj().T @ cols_a
        cols_b, marks_b = _fired(config, trial, "b")
        cross = cols_a.conj().T @ cols_b
        del cols_a
        gram_b = cols_b.conj().T @ cols_b
        del cols_b
        return [
            _mixed_norm(_step_kernel([marks_a, marks_b], [cross], config, n),
                        gram_a, gram_b, cross, mode) / config.d
            for n in ns
        ]

    rows = np.array(_run_trials(one_trial, config.trials, threads))
    means = rows.mean(axis=0)
    if config.trials < 2:
        zs = [None] * len(ns)
    else:
        stderrs = rows.std(axis=0, ddof=1) / math.sqrt(config.trials)
        zs = [_z_score(float(m), float(e), p) for m, e, p in zip(means, stderrs, predicted)]
    inversions = int(np.sum(np.diff(means) > 0))
    ratio = float(means[-1] / means[0]) if means[0] > 0 else 0.0
    # with no mixed mass at the first point there is no decay to measure
    passed = bool(means[0] > 0) and inversions <= 1 and ratio <= decay_threshold
    extras = {
        "mode": mode,
        "schedule": list(ns),
        "m2_by_n": [float(m) for m in means],
        "predicted_m2_by_n": predicted,
        "z_by_n": zs,
        "decay_ratio": ratio,
        "inversions": inversions,
    }
    if config.trials >= 2 and None in zs:
        extras["z_reason"] = NO_SPREAD
    return SimReport(
        config=config.to_json(), moments=[], histograms={}, extras=extras, passed=passed
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
