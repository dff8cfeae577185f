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

Three measure kinds are supported: "stable" (the family above, optionally
truncated), "tabulated" (the linear interpolant of a table of (u, density)
points, whose mass, mean and jump-size law are exact interval by interval,
with no quadrature), and "atoms" (a finite list of (size, rate) point masses).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, SpecError, UnsupportedConfigError

LARGE_JUMP_CUTOFF = 1.0
COUNT_CELLS = 1 << 18  # Poisson counts drawn at a time by sample_increments
QUAD_ABS_TOL = 1e-10


def _quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first use: most runs never integrate."""
    from scipy import integrate

    return integrate.quad(*args, **kwargs)


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
    s = np.sin(beta * u)
    # at beta = 1/2 (alpha = 1) the factor sin((1 - beta) u) is sin(beta u) itself
    a = (
        s ** (beta / (1.0 - beta))
        * (s if 1.0 - beta == beta else np.sin((1.0 - beta) * u))
        / np.sin(u) ** (1.0 / (1.0 - beta))
    )
    return (a / e) ** ((1.0 - beta) / beta)


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Levy measure of the subordinator S.

    kind "stable": density u**-(1+alpha/2) on (0, upper_cutoff), alpha in (0,2).
    kind "tabulated": `table` = ((u, density), ...), two or more points with
        0 < u increasing; the density is their linear interpolant on
        `support` = (first u, last u) and zero outside it.
    kind "atoms": finite point masses `atoms` = ((size, rate), ...).

    small_jump_cutoff is the delta below which jumps are replaced by their
    compensating drift when the measure is sampled as a compound Poisson
    stream.  upper_cutoff=None means no truncation.
    """

    kind: str = "stable"
    alpha: float | None = 1.0
    table: tuple[tuple[float, float], ...] = ()
    atoms: tuple[tuple[float, float], ...] = ()
    small_jump_cutoff: float = 1e-4
    upper_cutoff: float | None = None

    def __post_init__(self):
        if self.kind not in ("stable", "tabulated", "atoms"):
            raise SpecError(f"unknown measure kind {self.kind!r}")
        if self.kind == "stable":
            if self.alpha is None or not 0.0 < self.alpha < 2.0:
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

    # -- effective support ------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        """(lo, hi) outside which the density vanishes, before upper_cutoff."""
        tabulated = self.kind == "tabulated"
        return (self.table[0][0], self.table[-1][0]) if tabulated else (0.0, math.inf)

    def _hi(self) -> float:
        return min(self.support[1], self.upper_cutoff or math.inf)

    def _clipped(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """The table's points inside (a, b) with both ends interpolated in: (u, density)."""
        u, f = np.array(self.table).T
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
            vals = np.interp(u, *np.array(self.table).T, left=0.0, right=0.0)
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

    def mean_between_quad(self, a: float, b: float) -> float:
        """Same integral by adaptive quadrature.

        Near zero the integrable singularity is removed by u = v**2, turning
        integral(0,c) u nu(u) du into integral(0,sqrt(c)) 2 v**3 nu(v**2) dv.
        """
        hi = min(b, self._hi())
        a = max(a, self.support[0])
        if hi <= a:
            return 0.0
        if self.kind == "atoms":
            return float(sum(s * w for s, w in self.atoms if a < s <= hi))

        def dens(u):
            if self.kind == "stable":
                return u ** (-(1.0 + self.alpha / 2.0))
            return float(self.density_at(u))

        total = 0.0
        sub_end = min(hi, 1e-2)
        if a < sub_end:
            val, _ = _quad(
                lambda v: 2.0 * v**3 * dens(v * v),
                math.sqrt(a),
                math.sqrt(sub_end),
                epsabs=QUAD_ABS_TOL,
                limit=200,
            )
            total += val
            a = sub_end
        if a < hi:
            val, _ = _quad(
                lambda u: u * dens(u), a, hi, epsabs=QUAD_ABS_TOL, limit=200
            )
            total += val
        return total


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
    return LevyMeasureSpec(kind="tabulated", alpha=None, table=data)


# ---------------------------------------------------------------------------
# clock increments


def _truncated_size_sampler(spec: LevyMeasureSpec, lo: float) -> Callable:
    """Inverse-CDF sampler for jump sizes on (lo, hi] under the normalized tail of nu."""
    hi = spec._hi()
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
    lo = max(lo, spec.support[0])
    if hi <= lo:
        return np.zeros_like
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
    kept only as each jump's cell index; the sizes are drawn, mapped in place
    and summed into their zeroed cells in the same order, and the drift
    integral is added last.  Beyond the result, memory holds one int64 per
    jump of a chunk plus a few COUNT_CELLS-sized arrays.
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
    flat = out.reshape(-1)
    # chunk rows so the jumps drawn at once stay modest; the chunk fixes the draws
    mean_jumps = lam * float(dts.sum(axis=-1).max())
    rows = max(1, min(n_paths, int(5e6 / max(mean_jumps, 1.0)) + 1))
    sub = max(1, COUNT_CELLS // k)
    for start in range(0, n_paths, rows):
        stop = min(start + rows, n_paths)
        subs = [(a, min(a + sub, stop)) for a in range(start, stop, sub)]
        cells = []  # each jump's cell, one array per sub-chunk of rows
        for a, b in subs:
            counts = rng.poisson(lam * (dts[a:b] if dts.ndim == 2 else dts), (b - a, k))
            cells.append(np.repeat(np.arange(a * k, b * k), counts.ravel()))
        for idx in cells:
            np.add.at(flat, idx, draw(rng.uniform(size=idx.size)))
        for a, b in subs:  # sum + drift dt, the bits of drift dt + sum
            out[a:b] += drift * (dts[a:b] if dts.ndim == 2 else dts)
    return out


# ---------------------------------------------------------------------------
# small-jump drift and the H3 balance probe


def small_jump_drift(spec: LevyMeasureSpec, delta: float | None = None) -> float:
    """Compensating drift integral(0,delta) u nu(du).

    Closed form 2 delta**(1-alpha/2) / (2-alpha) for the stable kind,
    quadrature otherwise.  A zero measure yields 0.
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

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def check_H3(
    spec: LevyMeasureSpec, theta: float, eps_grid: Sequence[float], rtol: float = 0.05
) -> H3Result:
    """Probe the small-jump balance value eps**(theta/2-1) * integral(0,eps) u nu(du).

    The integral is always evaluated by quadrature so the probe is an honest
    numerical check even when a closed form exists.  The limit is declared to
    hold when the values stabilize to a positive constant within rtol across
    the grid; otherwise the log-log trend separates decay to zero from
    divergence.
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    eps = np.sort(np.asarray(eps_grid, dtype=float))[::-1]
    if eps.size < 3 or np.any(eps <= 0):
        raise ValueError("eps grid must hold at least three positive points")
    if eps[0] / eps[-1] < 1e3:
        raise ValueError("eps grid must span at least three decades")
    vals = np.array(
        [e ** (theta / 2.0 - 1.0) * spec.mean_between_quad(0.0, e) for e in eps]
    )
    positive = vals > 0
    if not positive.all():
        return H3Result(theta, eps, vals, "tends_to_zero", None)
    med = float(np.median(vals))
    spread = float((vals.max() - vals.min()) / med)
    if spread <= rtol:
        return H3Result(theta, eps, vals, "holds", med)
    slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
    verdict = "tends_to_zero" if slope > 0 else "diverges"
    return H3Result(theta, eps, vals, verdict, None)


# ---------------------------------------------------------------------------
# large-jump decomposition


@dataclass
class DecompositionSpec:
    """Split of the driving noise at the fixed unit jump-size cutoff.

    `truncated` keeps the measure on (0, 1); jumps larger than 1 arrive at
    finite rate lambda1 and contribute an independent compound Poisson sum of
    heavy displacements xi, each a centered Gaussian with variance mixed over
    the normalized tail of nu above 1, up to the measure's upper cutoff.
    """

    original: LevyMeasureSpec
    truncated: LevyMeasureSpec
    lambda1: float
    _mixing_inverse: Callable = field(repr=False, default=None)

    def sample_mixing(self, size, seed=None) -> np.ndarray:
        rng = as_rng(seed)
        return self._mixing_inverse(rng.uniform(size=size))


def decompose_large_jumps(spec: LevyMeasureSpec) -> DecompositionSpec:
    if spec.upper_cutoff is not None and spec.upper_cutoff <= LARGE_JUMP_CUTOFF:
        raise SpecError("measure has no mass above the unit cutoff; nothing to split")
    lam1 = spec.mass(LARGE_JUMP_CUTOFF)
    if not math.isfinite(lam1):
        raise SpecError("tail mass above the unit cutoff must be finite")
    if lam1 <= 0:
        raise SpecError("measure has no mass above the unit cutoff; nothing to split")
    return DecompositionSpec(
        original=spec,
        truncated=replace(spec, upper_cutoff=LARGE_JUMP_CUTOFF),
        lambda1=lam1,
        _mixing_inverse=_truncated_size_sampler(spec, LARGE_JUMP_CUTOFF),
    )


def sample_xi(
    decomp: DecompositionSpec, d: int, seed=None, size: int | None = None, return_mixing=False
):
    """Draw heavy displacements xi: variance s from the normalized tail, then N(0, s I_d)."""
    rng = as_rng(seed)
    m = 1 if size is None else size
    s = decomp.sample_mixing(m, rng)
    xi = np.sqrt(s)[:, None] * rng.standard_normal((m, d))
    if size is None:
        xi = xi[0]
        s = s[0]
    return (xi, s) if return_mixing else xi


def xi_density(decomp: DecompositionSpec, y, d: int) -> float:
    """Density of xi at |y|: (1/lambda1) integral(1,inf) (2 pi s)^(-d/2) e^(-|y|^2/2s) nu(ds)."""
    r2 = float(np.dot(np.atleast_1d(y), np.atleast_1d(y)))
    spec = decomp.original

    def integrand(s):
        return (
            (2.0 * math.pi * s) ** (-d / 2.0)
            * math.exp(-r2 / (2.0 * s))
            * float(spec.density_at(np.asarray(s)))
        )

    hi = spec._hi()
    val, _ = _quad(
        integrand,
        LARGE_JUMP_CUTOFF,
        hi,
        epsabs=QUAD_ABS_TOL,
        limit=300,
    )
    return val / decomp.lambda1


def levy_measure_of_L(spec: LevyMeasureSpec, y, d: int | None = None) -> float:
    """Density of the Levy measure of the subordinated driver L = W o S at y.

    nu_L(y) = integral(0,inf) (2 pi s)^(-d/2) exp(-|y|^2 / 2s) nu_S(ds); the
    result depends on y only through |y| and is strictly positive for y != 0.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if d is None:
        d = y.size
    r2 = float(np.dot(y, y))
    if r2 == 0.0:
        raise ValueError("nu_L diverges at the origin; evaluate at y != 0")

    if spec.kind == "atoms":
        total = 0.0
        hi = spec._hi()
        for s, w in spec.atoms:
            if s <= hi:
                total += w * (2.0 * math.pi * s) ** (-d / 2.0) * math.exp(-r2 / (2.0 * s))
        return total

    def integrand(s):
        if spec.kind == "stable":
            dens = s ** (-(1.0 + spec.alpha / 2.0))
        else:
            dens = float(spec.density_at(s))
        return (2.0 * math.pi * s) ** (-d / 2.0) * math.exp(-r2 / (2.0 * s)) * dens

    lo, _ = spec.support
    hi = spec._hi()
    val, _ = _quad(
        integrand,
        lo,
        hi,
        epsabs=QUAD_ABS_TOL,
        limit=300,
        points=[r2, r2 / max(d, 1)] if math.isfinite(hi) else None,
    )
    return val
