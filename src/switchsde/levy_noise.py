"""Subordinator noise: exact sampling, truncation, and large-jump decomposition.

The driving time change S is a subordinator whose Levy measure has the
unnormalized density nu(du) = u**-(1 + alpha/2) du on (0, inf), alpha in
(0, 2).  Its Laplace exponent is

    phi(s) = C(alpha) * s**(alpha/2),    C(alpha) = Gamma(1 - alpha/2) / (alpha/2),

so an increment over dt equals (C * dt)**(2/alpha) times a standard one-sided
stable variate, which Kanter's representation samples exactly.  Cutting the
measure off above u = 1 gives the small-jump part used by the distributional
decomposition of the driving noise; below the small-jump cutoff delta, jumps
are replaced by their compensating drift integral(0,delta) u nu(du) and the
rest arrive as a thinned compound Poisson stream.

A measure's kind follows from its data: "tabulated" with a table of (u,
density) points (their linear interpolant, whose mass, mean and jump-size law
are exact interval by interval, with no quadrature), "atoms" with a list of
(size, rate) point masses, and "stable" (the family above) with neither.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, SpecError, UnsupportedConfigError

LARGE_JUMP_CUTOFF = 1.0
COUNT_CELLS = 1 << 18  # Poisson counts drawn at a time by sample_increments
H3_RTOL = 0.05  # the relative spread within which check_H3 takes its probe values as constant


def as_rng(seed) -> np.random.Generator:
    """Coerce an int, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def stable_laplace_coefficient(alpha: float) -> float:
    """C(alpha) with phi(s) = C(alpha) * s**(alpha/2) for the unnormalized density."""
    return math.gamma(1.0 - alpha / 2.0) / (alpha / 2.0)


def standard_positive_stable(beta: float, size, rng: np.random.Generator) -> np.ndarray:
    """Draw one-sided stable variates with Laplace transform exp(-s**beta).

    Kanter's representation: with U uniform on (0, pi) and E standard
    exponential,

        X = (A(U) / E) ** ((1 - beta) / beta),
        A(u) = sin(beta u)**(beta/(1-beta)) * sin((1-beta) u) / sin(u)**(1/(1-beta)).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"stable exponent must lie in (0,1), got {beta}")
    u = rng.uniform(0.0, math.pi, size)
    e = rng.standard_exponential(size)
    with np.errstate(all="ignore"):
        s = np.sin(beta * u)
        if beta == 0.5:  # alpha = 1: A(u) = s s / sin(u)^2 and X = A / E, no other powers
            x = s * s / np.square(np.sin(u)) / e
        else:
            a = (
                s ** (beta / (1.0 - beta))
                * np.sin((1.0 - beta) * u)
                / np.sin(u) ** (1.0 / (1.0 - beta))
            )
            x = (a / e) ** ((1.0 - beta) / beta)
        # near beta = 1 the powers of sin(u) leave the float range: take logs
        if not (x.min(initial=math.inf) > 0.0 and x.max(initial=0.0) < math.inf):  # or NaN
            bad = ~((x > 0.0) & (x < math.inf))
            v = u[bad]
            beta_log_x = (  # (1 - beta) log(A / E)
                beta * np.log(np.sin(beta * v)) - np.log(np.sin(v))
                + (1.0 - beta) * np.log(np.sin((1.0 - beta) * v) / e[bad])
            )
            x[bad] = np.exp(beta_log_x / beta)
    return x


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Levy measure of the subordinator S, of the kind its data tell.

    "tabulated": `table` = ((u, density), ...), two or more points with
        0 < u increasing; the density is their linear interpolant on
        `support` = (first u, last u) and zero outside it.
    "atoms": finite point masses `atoms` = ((size, rate), ...).
    "stable", with neither: density u**-(1+alpha/2) on (0, upper_cutoff), alpha in (0,2).

    small_jump_cutoff is the delta below which jumps are replaced by their
    compensating drift when the measure is sampled as a compound Poisson
    stream.  upper_cutoff=None means no truncation.
    """

    alpha: float | None = 1.0
    table: tuple[tuple[float, float], ...] | None = None
    atoms: tuple[tuple[float, float], ...] | None = None
    small_jump_cutoff: float = 1e-4
    upper_cutoff: float | None = None

    def __post_init__(self):
        if self.table is not None and self.atoms is not None:
            raise SpecError("a measure takes a table or atoms, not both")
        if self.kind == "stable" and (self.alpha is None or not 0.0 < self.alpha < 2.0):
            raise SpecError(f"alpha must lie in (0,2), got {self.alpha}")
        if self.kind == "tabulated":
            pts = np.asarray(self.table, dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
                raise SpecError(f"a table needs two or more (u, density) rows, got {pts.shape}")
            u, f = pts.T
            if not (np.isfinite(u).all() and u[0] > 0 and (np.diff(u) > 0).all()):
                raise SpecError("table abscissae must be finite, positive and strictly increasing")
            if not (np.isfinite(f).all() and (f >= 0).all() and (f > 0).any()):
                raise SpecError("table densities must be finite and nonnegative, and not all zero")
            object.__setattr__(self, "table", tuple(map(tuple, pts.tolist())))
        if self.kind == "atoms":
            if not self.atoms:
                raise SpecError("atoms measure requires at least one (size, rate) pair")
            for s, w in self.atoms:
                if s <= 0 or w <= 0:
                    raise SpecError(f"atom sizes and rates must be positive, got ({s}, {w})")
        if not 0.0 < self.small_jump_cutoff <= 1.0:
            raise SpecError(
                f"small_jump_cutoff must lie in (0,1], got {self.small_jump_cutoff}"
            )
        if self.upper_cutoff is not None and self.upper_cutoff <= 0.0:
            raise SpecError(f"upper_cutoff must be positive, got {self.upper_cutoff}")

    @property
    def kind(self) -> str:
        if self.table is not None:
            return "tabulated"
        return "stable" if self.atoms is None else "atoms"

    @property
    def theta(self) -> float:
        """theta of the small-jump hypothesis H3: alpha for a stable clock, 1 otherwise."""
        return self.alpha if self.kind == "stable" else 1.0

    # -- effective support ------------------------------------------------

    @cached_property
    def _points(self) -> np.ndarray:
        """The table's (u, density) columns, built once: every integral and lookup reads them.

        u holds the kinks of the density, the ends of its linear pieces.
        """
        return np.array(self.table or ()).reshape(-1, 2).T

    @property
    def support(self) -> tuple[float, float]:
        """(lo, hi) outside which the density vanishes, before upper_cutoff."""
        return (self.table[0][0], self.table[-1][0]) if self.table else (0.0, math.inf)

    def _hi(self) -> float:
        return min(self.support[1], self.upper_cutoff or math.inf)

    def _clipped(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """The table's points inside (a, b) with both ends interpolated in: (u, density)."""
        u, f = self._points
        x = np.concatenate([[a], u[(u > a) & (u < b)], [b]])
        return x, np.interp(x, u, f)

    def density_at(self, u) -> np.ndarray:
        """Pointwise density of the (possibly truncated) measure; atoms have none."""
        if self.kind == "atoms":
            raise UnsupportedConfigError("an atomic measure has no density")
        u = np.asarray(u, dtype=float)
        if self.kind == "stable":
            vals = np.where(u > 0, u, 1.0) ** (-(1.0 + self.alpha / 2.0))
        else:
            vals = np.interp(u, *self._points, left=0.0, right=0.0)
        return np.where((u > 0) & (u < self._hi()), vals, 0.0)

    # -- integrals ---------------------------------------------------------

    def mass(self, a: float, b: float | None = None) -> float:
        """nu((a, b]) intersected with the effective support; b=None means the upper end."""
        hi = self._hi() if b is None else min(b, self._hi())
        a = max(a, self.support[0])
        if hi <= a:
            return 0.0
        if self.kind == "stable":
            beta = self.alpha / 2.0
            upper = 0.0 if math.isinf(hi) else hi ** (-beta)
            return (a ** (-beta) - upper) / beta
        if self.kind == "atoms":
            return float(sum(w for s, w in self.atoms if a < s <= hi))
        u, f = self._clipped(a, hi)  # trapezoids are exact for the interpolant
        return float(np.sum(np.diff(u) * (f[:-1] + f[1:])) / 2.0)

    def mean_between(self, a: float, b: float) -> float:
        """integral(a,b) u nu(du) on the effective support, in closed form."""
        hi = min(b, self._hi())
        a = max(a, self.support[0])
        if hi <= a:
            return 0.0
        if self.kind == "stable":
            beta = self.alpha / 2.0
            return (hi ** (1.0 - beta) - a ** (1.0 - beta)) / (1.0 - beta)
        if self.kind == "atoms":
            return float(sum(s * w for s, w in self.atoms if a < s <= hi))
        u, f = self._clipped(a, hi)
        u0, u1, f0, f1 = u[:-1], u[1:], f[:-1], f[1:]
        return float(np.sum((u1 - u0) / 6.0 * (f0 * (2.0 * u0 + u1) + f1 * (u0 + 2.0 * u1))))


def load_tabulated_csv(path) -> LevyMeasureSpec:
    """Read a CSV of (u, density) rows, after one header line, into a tabulated measure."""
    with open(path) as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty table fails validation
        try:
            np.array(fh.readline().split(","), dtype=float)
        except ValueError:  # the header line
            pass
        else:
            raise DataError("measure table must start with a header line")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as e:
            raise DataError(f"measure table is not a numeric CSV: {e}") from e
    return LevyMeasureSpec(alpha=None, table=data)


# ---------------------------------------------------------------------------
# clock increments


def _truncated_size_sampler(spec: LevyMeasureSpec, lo: float) -> Callable:
    """Inverse-CDF sampler for jump sizes on (lo, hi] under the normalized tail of nu."""
    hi = spec._hi()
    lo = max(lo, spec.support[0])
    if hi <= lo:
        return np.zeros_like
    if spec.kind == "stable":
        beta = spec.alpha / 2.0
        top = 0.0 if math.isinf(hi) else hi ** (-beta)
        span = lo ** (-beta) - top

        def draw(u):
            # in place on u, which every caller draws fresh: no size-long temporary
            u = np.asarray(u, dtype=float)
            u *= span
            np.subtract(lo ** (-beta), u, out=u)
            u **= -1.0 / beta
            return u if u.ndim else u[()]

        return draw
    if spec.kind == "atoms":
        sizes = np.array([s for s, w in spec.atoms if lo < s <= hi])
        rates = np.array([w for s, w in spec.atoms if lo < s <= hi])
        if sizes.size == 0:
            return np.zeros_like
        cdf = np.cumsum(rates) / rates.sum()

        def draw(u):
            return sizes[np.searchsorted(cdf, u, side="left")]

        return draw
    # tabulated: on each interval of the clipped table the cumulative mass is
    # f0 t + slope t**2 / 2 at t = u - u0, inverted by its stable root
    u, f = spec._clipped(lo, hi)
    w = np.diff(u)
    slope = np.diff(f) / w
    edges = np.concatenate([[0.0], np.cumsum(w * (f[:-1] + f[1:]) / 2.0)])

    def draw(q):
        m = np.asarray(q, dtype=float) * edges[-1]
        i = np.searchsorted(edges[:-1], m, side="right") - 1
        r = m - edges[i]
        f0 = f[i]
        root = np.sqrt(np.maximum(f0 * f0 + 2.0 * slope[i] * r, 0.0))
        # r = 0 at f0 = 0 gives 0 / tiny = 0; roundoff past the interval is clipped
        t = 2.0 * r / np.maximum(f0 + root, np.finfo(float).tiny)
        return u[i] + np.minimum(t, w[i])

    return draw


def sample_increments(
    spec: LevyMeasureSpec, dts: np.ndarray, n_paths: int, seed=None
) -> np.ndarray:
    """Batch per-step increments of S, shape (n_paths, K).

    dts is one (K,) grid shared by every path or one (n_paths, K) row per
    path.  Cells are independent, each drawn from the law of an increment
    over its own dt, and a cell with dt = 0 gets exactly 0; individual jump
    times inside a step are not recorded.

    A compound-Poisson clock draws, per chunk of rows holding about 5e6
    expected jumps, every cell's jump count and then every jump's size, in
    C order.  The counts are drawn COUNT_CELLS cells of rows at a time and
    kept only as each sub-chunk's nonzero cells and their counts; then, at
    most COUNT_CELLS jumps at a time, the counts are expanded to cell indices
    and the sizes are drawn, mapped in place and added to their zeroed cells
    one by one in the same order, and the drift integral is added last.
    Beyond the result, memory holds each nonzero cell of a chunk as an int32
    index and a count of the smallest type that holds the largest (five bytes
    a cell on low-rate grids, and never more than one int64 per jump), plus a
    few COUNT_CELLS-sized arrays, however many jumps a cell has.
    """
    rng = as_rng(seed)
    dts = np.asarray(dts, dtype=float)
    k = dts.shape[-1]
    if spec.kind == "stable" and spec.upper_cutoff is None:
        beta = spec.alpha / 2.0
        c = stable_laplace_coefficient(spec.alpha)
        x = standard_positive_stable(beta, (n_paths, k), rng)
        return (c * dts) ** (1.0 / beta) * x

    delta = max(spec.small_jump_cutoff, spec.support[0])
    drift = spec.mean_between(0.0, delta)
    lam = spec.mass(delta)
    if not math.isfinite(lam):
        raise SpecError("jump intensity above the cutoff is infinite; lower alpha or truncate")
    draw = _truncated_size_sampler(spec, delta)
    out = np.zeros((n_paths, k))
    # chunk rows so the jumps drawn at once stay modest; the chunk fixes the draws
    mean_jumps = lam * float(dts.sum(axis=-1).max())
    rows = max(1, min(n_paths, int(5e6 / max(mean_jumps, 1.0)) + 1))
    sub = max(1, COUNT_CELLS // k)
    for start in range(0, n_paths, rows):
        stop = min(start + rows, n_paths)
        subs = [(a, min(a + sub, stop)) for a in range(start, stop, sub)]
        held = []  # each sub-chunk's nonzero cells (int32) and counts (the smallest type)
        for a, b in subs:
            counts = rng.poisson(lam * (dts[a:b] if dts.ndim == 2 else dts), (b - a, k)).ravel()
            hit = np.flatnonzero(counts > 0)  # nonzero on a bool array is the fast one
            n = counts[hit]
            held.append((hit.astype(np.int32), n.astype(np.min_scalar_type(n.max(initial=0)))))
        for (a, b), (hit, n) in zip(subs, held):
            cells = out[a:b].reshape(-1)
            ends = np.cumsum(n, dtype=np.int64)
            total = int(ends[-1]) if ends.size else 0
            for lo in range(0, total, COUNT_CELLS):
                # jumps lo..hi-1 of the sub-chunk in C order, each added to its cell in turn
                hi = min(lo + COUNT_CELLS, total)
                i, j = np.searchsorted(ends, lo, "right"), np.searchsorted(ends, hi) + 1
                span = np.minimum(ends[i:j], hi) - np.maximum(ends[i:j] - n[i:j], lo)
                np.add.at(cells, np.repeat(hit[i:j], span), draw(rng.uniform(size=hi - lo)))
        for a, b in subs:  # sum + drift dt, the bits of drift dt + sum
            out[a:b] += drift * (dts[a:b] if dts.ndim == 2 else dts)
    return out


# ---------------------------------------------------------------------------
# small-jump drift and the H3 balance probe


def small_jump_drift(spec: LevyMeasureSpec, delta: float | None = None) -> float:
    """Compensating drift integral(0,delta) u nu(du).

    Closed form 2 delta**(1-alpha/2) / (2-alpha) for the stable kind, exact
    for a table's piecewise-linear density and for atoms.  A zero measure
    yields 0.
    """
    if delta is None:
        delta = spec.small_jump_cutoff
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"cutoff must lie in (0,1], got {delta}")
    return spec.mean_between(0.0, delta)


@dataclass
class H3Result:
    theta: float
    eps: np.ndarray
    values: np.ndarray
    verdict: str  # "holds" | "tends_to_zero" | "diverges"
    c_theta: float | None
    spread: float  # the values' range over their median; inf unless the median is positive


def check_H3(spec: LevyMeasureSpec, theta: float, eps_grid: Sequence[float]) -> H3Result:
    """Probe the small-jump balance value eps**(theta/2-1) * integral(0,eps) u nu(du).

    The integral is ``spec.mean_between(0, eps)``, exact for every measure
    kind.  The limit is declared to hold when the values stabilize to a
    positive constant within H3_RTOL across the grid; otherwise the log-log
    trend separates decay to zero from divergence.
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    eps = np.sort(np.asarray(eps_grid, dtype=float))[::-1]
    if eps.size < 3 or np.any(eps <= 0):
        raise ValueError("eps grid must hold at least three positive points")
    if eps[0] / eps[-1] < 1e3:
        raise ValueError("eps grid must span at least three decades")
    vals = np.array([e ** (theta / 2.0 - 1.0) * spec.mean_between(0.0, e) for e in eps])
    med = float(np.median(vals))
    spread = float((vals.max() - vals.min()) / med) if med > 0 else math.inf
    if not (vals > 0).all():
        return H3Result(theta, eps, vals, "tends_to_zero", None, spread)
    if spread <= H3_RTOL:
        return H3Result(theta, eps, vals, "holds", med, spread)
    slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
    verdict = "tends_to_zero" if slope > 0 else "diverges"
    return H3Result(theta, eps, vals, verdict, None, spread)


# ---------------------------------------------------------------------------
# large-jump decomposition


@dataclass
class DecompositionSpec:
    """Split of the driving noise at the fixed unit jump-size cutoff.

    `truncated` keeps the measure on (0, 1); jumps larger than 1 arrive at
    finite rate lambda1 and contribute an independent compound Poisson sum of
    heavy displacements xi, each a centered Gaussian with variance mixed over
    the normalized tail of nu above 1, up to the measure's upper cutoff.  A
    measure with no mass above 1 splits trivially, with lambda1 = 0.
    """

    truncated: LevyMeasureSpec
    lambda1: float
    _mixing_inverse: Callable = field(repr=False, default=None)

    def sample_mixing(self, size, seed=None) -> np.ndarray:
        rng = as_rng(seed)
        return self._mixing_inverse(rng.uniform(size=size))


def decompose_large_jumps(spec: LevyMeasureSpec) -> DecompositionSpec:
    lam1 = spec.mass(LARGE_JUMP_CUTOFF)
    if not math.isfinite(lam1):
        raise SpecError("tail mass above the unit cutoff must be finite")
    cut = min(spec.upper_cutoff or math.inf, LARGE_JUMP_CUTOFF)
    return DecompositionSpec(
        truncated=replace(spec, upper_cutoff=cut),
        lambda1=lam1,
        _mixing_inverse=_truncated_size_sampler(spec, LARGE_JUMP_CUTOFF),
    )


def sample_xi(decomp: DecompositionSpec, d: int, seed=None, size: int = 1, return_mixing=False):
    """(size, d) heavy displacements xi: variance s from the normalized tail, then N(0, s I_d)."""
    rng = as_rng(seed)
    s = decomp.sample_mixing(size, rng)
    xi = np.sqrt(s)[:, None] * rng.standard_normal((size, d))
    return (xi, s) if return_mixing else xi

