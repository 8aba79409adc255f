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

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from .cumulants import cumulants_to_moments, moments_to_cumulants
from .measures import (
    _exact_atom_moments, _floats, _integer, _integers, _is_integer, _is_real_pairs, _real, _rounded,
    dumps,
)
from .ncsym import stochastic_integral_poly

HERMITIAN_TOL = 1e-10
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
    """A campaign's model. Jump atoms must be nonzero, exactly: with no
    absolute floor, a jump law dilated by c = 2^j is accepted, and every
    `sim variation` moment of order n scales by c^(kn), the proxies by c^k."""

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
        if not _is_integer(self.master_seed):  # any integer, negative too
            raise SimError(f"master_seed must be an integer, got {self.master_seed!r}")
        self.master_seed = int(self.master_seed)
        for name, least in (("d", 2), ("trials", 1), ("N", 1), ("k_max", 1)):
            setattr(self, name, _integer(getattr(self, name), least, name, SimError))
        for name in ("t", "lam") + (("alpha",) if self.alpha is not None else ()):
            _real(getattr(self, name), name, SimError)
        if not _is_real_pairs(self.jump):
            raise SimError(f"jump must be [atom, mass] pairs of real numbers, got {self.jump!r}")
        if not (0 < self.t <= 1):
            raise SimError(f"terminal time must be in (0, 1], got {self.t}")
        if not self.lam > 0:
            raise SimError(f"jump rate lam must be > 0, got {self.lam}")
        self.jump = [(float(x), float(m)) for x, m in self.jump]
        if not all(x != 0 for x, _ in self.jump):
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

    def to_json(self) -> dict:
        out = asdict(self)
        out["jump"] = [[x, m] for x, m in self.jump]
        if self.alpha is None:
            del out["alpha"]
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
    trial = _integer(trial, 0, "trial", SimError)
    if tag not in _STREAM_TAGS:
        raise SimError(f"unknown stream tag {tag!r}")
    counter = [0, 0, np.uint64(trial), np.uint64(_STREAM_TAGS[tag])]
    return np.random.Generator(
        np.random.Philox(key=np.uint64(master_seed & (2**64 - 1)), counter=counter)
    )


def hermitize(h: np.ndarray) -> np.ndarray:
    return (h + h.conj().T) / 2.0


def is_hermitian(h: np.ndarray) -> bool:
    """max|h - h*| <= HERMITIAN_TOL max|h|: judged at h's own scale, with no floor."""
    return bool(np.max(np.abs(h - h.conj().T)) <= HERMITIAN_TOL * np.max(np.abs(h)))


def sample_gue(d: int, rng) -> np.ndarray:
    """GUE matrix normalized so the spectrum approaches semicircle(var 1):
    (A + A*) / (2 sqrt d) for A = re + i im of standard normals, re drawn
    first. The parts re + re^T and im - im^T are written into one complex
    array and multiplied by 1 / (2 sqrt d), as numpy's complex division by
    a real scalar does, so the result is bit for bit the complex formula's."""
    d = _integer(d, 2, "d", SimError)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    scale = 1.0 / (2.0 * math.sqrt(d))
    out = np.empty((d, d), dtype=complex)
    re = rng.standard_normal((d, d))
    np.multiply(np.add(re, re.T, out=out.real), scale, out=out.real)
    im = rng.standard_normal((d, d), out=re)
    np.multiply(np.subtract(im, im.T, out=out.imag), scale, out=out.imag)
    return out


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
    with X_n = D_1 (G_12 o S_12) D_2 ... (G_(m-1)m o S_(m-1)m) D_m,
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


def _times(blocks, m, height: int) -> np.ndarray:
    """X m for the middle factor X of `height` rows given by its step blocks
    (rows, cols, X_i); a row of X outside every block is zero. Every
    fired-space quantity is this product and `_trace`."""
    out = np.zeros((height, m.shape[1]), dtype=complex)
    for rows, cols, block in blocks:
        out[rows] = block @ m[cols]
    return out


def _trace(a, b) -> float:
    """Re tr(a b), with no temporary."""
    return float(np.einsum("ij,ji->", a, b).real)


def sample_cp_increments(config: SimConfig, trial: int, family: str = "a"):
    """The N compound-Poisson increments of one trial, telescoping by design,
    yielded one dense matrix at a time (`list()` holds them all). The
    arguments are checked and the marks drawn at the call."""
    return _increments(_draw_marks(config, trial, family), config, config.N)


def variation_target(config: SimConfig, k: int, trial: int = 0, family: str = "a"):
    """s e(t)^k s, the matrix realization of the k-th variation at time t: the
    one-step increment of the marks with jumps v^k."""
    k = _integer(k, 1, "k", SimError)
    s, u, v = _draw_marks(config, trial, family)
    return next(_increments((s, u, v**k), config, 1))


def power_sums(increments, k: int) -> np.ndarray:
    """Sum of k-th matrix powers of the increments (any iterable of them)."""
    return _power_sum_ladder(increments, k)[-1]


def _power_sum_ladder(increments, k: int) -> list:
    """[power_sums(increments, j) for j in 1..k]: each increment's powers are
    running products, so k powers cost k - 1 matrix products."""
    k = _integer(k, 1, "k", SimError)
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
    if not is_hermitian(h):
        raise SimError("esd expects a Hermitian matrix")
    return np.sort(np.linalg.eigvalsh(hermitize(h)))


def trace_moments(h: np.ndarray, n: int) -> list:
    """(1/d) tr(h^m) for m = 1..n, by repeated products; a test oracle and a traced
    benchmark name (no library caller)."""
    d = h.shape[0]
    out = []
    p = None
    for _ in range(_integer(n, 0, "n", SimError)):
        p = h if p is None else p @ h
        out.append(float(np.trace(p).real) / d)
    return out


def matricial_cauchy(b_mat, a_mats, x_mats) -> np.ndarray:
    """(I (x) tr/d) applied to the inverse of M = B (x) 1 - sum A_i (x) X_i.

    M is built in place as k x k blocks of d x d, and one block Gauss-Jordan
    elimination, pivoting on the diagonal blocks in order, overwrites it with
    its inverse, whose block traces are the result: k inversions and
    k (k^2 - 1) products of d x d blocks. No block pivoting is needed: the
    A_i and X_i are Hermitian, so Im M = Im B (x) 1 is positive definite. A
    matrix with positive definite imaginary part is invertible and its
    inverse has a negative definite one, so each Schur complement of M (the
    inverse of a diagonal block of M^-1) again has a positive definite
    imaginary part, and so does each pivot, a diagonal block of one."""
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
    blocks = np.zeros((k, k, d, d), dtype=complex)
    for p, q in np.ndindex(k, k):
        np.fill_diagonal(blocks[p, q], b_mat[p, q])
    for a, x in zip(a_mats, x_mats):
        a = np.asarray(a, dtype=complex)
        if a.shape != (k, k) or np.shape(x) != (d, d):
            raise SimError(
                f"matricial transform needs each A_i of shape {(k, k)} (that of B) and "
                f"each X_i of shape {(d, d)}, got A_i {a.shape} and X_i {np.shape(x)}"
            )
        if not (is_hermitian(a) and is_hermitian(x)):
            raise SimError("matricial transform needs Hermitian coefficients/samples")
        for p, q in np.ndindex(k, k):
            blocks[p, q] -= a[p, q] * x
    for p in range(k):
        pivot = np.linalg.inv(blocks[p, p])
        rest = [q for q in range(k) if q != p]
        for q in rest:
            blocks[p, q] = pivot @ blocks[p, q]
        for i in rest:
            for q in rest:
                blocks[i, q] -= blocks[i, p] @ blocks[p, q]
            blocks[i, p] = -(blocks[i, p] @ pivot)
        blocks[p, p] = pivot
    return np.einsum("pqii->pq", blocks) / d


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
        return asdict(self)

    def dumps(self) -> str:
        return dumps(self.to_json())

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
    threads = _integer(threads, 1, "threads", SimError)
    if threads == 1:
        return [fn(i) for i in range(trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(trials)))


def _step_cumulants(config: SimConfig, n: int, orders: int) -> list:
    """The free cumulants delta int x^j d jump, j = 1..orders, of one step of
    an n-step grid of [0, t]: free compound Poisson of rate delta = lam t / n.
    lam, t, the atoms and the masses enter as the exact values of their
    floats, so every reference built on these is exact until it is rounded
    once, at its output."""
    delta = Fraction(config.lam) * Fraction(config.t) / n
    jump = [(Fraction(x), Fraction(mass)) for x, mass in config.jump]
    return [delta * m for m in _exact_atom_moments(jump, orders)]


def predicted_variation_moments(config: SimConfig, k: int, orders: int) -> list:
    """Moments of the k-th variation at time t, the limiting law: compound
    Poisson with the jumps pushed through x^k, so its free cumulants are
    every k-th cumulant of the whole interval's law, lam t int x^(kj) d jump."""
    k, orders = _integer(k, 1, "k", SimError), _integer(orders, 1, "orders", SimError)
    kappas = _step_cumulants(config, 1, orders * k)[k - 1 :: k]
    return _rounded(cumulants_to_moments(kappas), "the predicted moments overflow")


def finite_n_power_sum_moments(config: SimConfig, k: int, orders: int) -> list:
    """Moments of sum_i X_(i,N)^k at finite N (the pre-limit law).

    The law is the N-fold free convolution power of the pushforward of one
    increment's law under x^k; it differs from the limiting variation law at
    order O(1/N), e.g. its first moment is lam t + (lam t int x d jump)^2 / N
    plus higher corrections. Reports carry it as a reference so the
    systematic truncation gap is visible next to the Monte Carlo error.
    """
    k, orders = _integer(k, 1, "k", SimError), _integer(orders, 1, "orders", SimError)
    inc_moments = cumulants_to_moments(_step_cumulants(config, config.N, orders * k))
    nu_kappas = moments_to_cumulants(inc_moments[k - 1 :: k])
    return _rounded(cumulants_to_moments([config.N * x for x in nu_kappas]),
                    "the predicted moments overflow")


NO_SPREAD = "no spread across the trials, and the mean misses the prediction"


def _compare(rows, predicted):
    """(means, stderrs, zs) of each column of a trials x points array against
    `predicted`. A column is divided by a power of two near its largest
    magnitude, so no square overflows; where nothing over- or underflows either
    way, the results are bit for bit the unscaled ones. With one trial the
    errors and zs are None; with no spread z is 0 on a match within 1e-12 of
    the larger side (scale-free) and None (for NO_SPREAD) otherwise."""
    rows = np.asarray(rows, dtype=float)
    exps = np.frexp(np.max(np.abs(rows), axis=0))[1]
    scaled = list(zip(np.ldexp(rows, -exps).T, exps))  # columns, each reduced on its own
    means = [float(np.ldexp(c.mean(), e)) for c, e in scaled]
    if len(rows) < 2:
        return means, [None] * len(means), [None] * len(means)
    errs = [float(np.ldexp(c.std(ddof=1), e)) / math.sqrt(len(rows)) for c, e in scaled]
    zs = [(m - p) / s if s > 0 else 0.0 if abs(m - p) <= 1e-12 * max(abs(m), abs(p)) else None
          for m, s, p in zip(means, errs, predicted)]
    return means, errs, zs


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
    k = _integer(k, 1, "k", SimError)
    if config.trials < 2:
        raise SimError(f"a standard error needs at least 2 trials, got {config.trials}")
    orders = config.k_max
    predicted = predicted_variation_moments(config, k, orders)
    finite_reference = finite_n_power_sum_moments(config, k, orders)
    schedule = _doubling_schedule(config.N)

    def one_trial(trial):
        cols, marks = _fired(config, trial)
        gram = cols.conj().T @ cols
        proxies = []
        for n in schedule:
            blocks = [(rows, rows, hermitize(block)) for rows, _, block
                      in _step_kernel([marks] * k, [gram] * (k - 1), config, n)]
            product = _times([(rows, rows, block - np.diag(marks[1][rows] ** k))
                              for rows, _, block in blocks], gram, len(gram))
            proxies.append(math.sqrt(max(_trace(product, product), 0.0) / config.d))
            del product  # freed before the next point's is built
        del gram
        acc = cols @ _times(blocks, cols.conj().T, cols.shape[1])
        del cols
        eigs = esd(acc)
        return [float(np.mean(eigs**m)) for m in range(1, orders + 1)], proxies, eigs

    results = _run_trials(one_trial, config.trials, threads)
    proxy_rows = np.array([r[1] for r in results])
    eigs = np.concatenate([r[2] for r in results])

    moments = []
    for j, (mean, stderr, z) in enumerate(zip(*_compare([r[0] for r in results], predicted))):
        entry = {
            "order": j + 1,
            "mean": mean,
            "stderr": stderr,
            "predicted": predicted[j],
            "z": z,
            "informational": j + 1 > 4,
        }
        if z is None:
            entry["z_reason"] = NO_SPREAD
        moments.append(entry)

    proxy_means = proxy_rows.mean(axis=0)
    inversions = int(np.sum(np.diff(proxy_means) > 0))
    all_pass = inversions <= 1 and all(
        m["informational"] or (m["z"] is not None and abs(m["z"]) <= 4.0) for m in moments)

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
    k = _integer(k, 1, "k", SimError, IDENTITY_MAX_K)
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


@_floats("the counterexample's quadratic sums leave")
def counterexample_rows(alpha: float, ns, t: float = 1.0) -> list:
    """Quadratic sums of the infinitesimal-but-divergent scalar array.

    X_(i,N) = 1/N + (-1)^i / N^alpha for i = 1..[2 N t]; the quadratic sum
    equals [2Nt]/N^2 + s/N^(1+alpha) * 2 + [2Nt]/N^(2 alpha) exactly, with
    s = -1 for odd counts and 0 for even, and grows like 2 t N^(1-2 alpha).
    """
    _real(alpha, "alpha", SimError)
    _real(t, "t", SimError)
    rows = []
    for n in ns:
        n = _integer(n, 1, "N", SimError)
        m = int(2 * n * t)
        sign_sum = -1 if m % 2 else 0
        value = m / n**2 + 2.0 * sign_sum / (n * n**alpha) + m / n ** (2 * alpha)
        reference = 2.0 * t * n ** (1.0 - 2.0 * alpha)
        rows.append(
            {
                "N": n,
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
    ||A||^2 = Re tr(G_a X G_b X*) and ||A + A*||^2 = 2 ||A||^2 + 2 Re tr((X C*)^2)."""
    height = len(gram_a)
    norm = _trace(gram_a, _times(blocks, _times(blocks, gram_b, height).conj().T, height))
    if mode == "product":
        return norm
    twisted = _times(blocks, cross.conj().T, height)
    return 2 * norm + 2 * _trace(twisted, twisted)


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
    The report also carries the free large-d value of m2 at each point n,
    `_free_mixed_m2` of the first two moments of one step's law, and
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
    _real(decay_threshold, "decay_threshold", SimError)
    if schedule is not None:
        schedule = _integers(schedule, 1, "schedule", SimError)
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
    ns = list(schedule or _doubling_schedule(config.N)[1:] or [config.N])
    predicted = _rounded([_free_mixed_m2(*cumulants_to_moments(_step_cumulants(config, n, 2)),
                                         n, mode) for n in ns], "the predicted m2 overflows")

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

    means, _, zs = _compare(_run_trials(one_trial, config.trials, threads), predicted)
    inversions = int(np.sum(np.diff(means) > 0))
    ratio = means[-1] / means[0] if means[0] > 0 else 0.0
    # with no mixed mass at the first point there is no decay to measure
    passed = means[0] > 0 and inversions <= 1 and ratio <= decay_threshold
    extras = {
        "mode": mode,
        "schedule": ns,
        "m2_by_n": means,
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
