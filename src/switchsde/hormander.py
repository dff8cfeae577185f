"""Iterated drift brackets and the spanning-rank certificate.

The diffusion columns are constant, so the only nontrivial brackets are the
iterates against the drift of the active regime:

    B_1 = sigma,    B_{j+1} = [b(., i), B_j],
    [b, V]_{.k} = (grad V_{.k}) b - (grad b) V_{.k}.

The certificate is the smallest eigenvalue of the cumulative Gram matrix
C_{j0} = sum_{j<=j0} B_j B_j^T, minimized over a ball of states and over all
regimes.  A strictly positive minimum certifies that the bracket family spans
every direction uniformly; the canonical two-regime chain model gives exactly
1 at every point, and a zero-drift model with a rank-deficient sigma gives 0
with the missing direction as witness.

Brackets are assembled either analytically, from the model's derivative
tensors via a Leibniz recursion on derivative stacks (needs d^m b up to order
depth-1), or by nested central differences on the drift alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, UnsupportedConfigError
from .models import FD_STEP_SCALE, ModelSpec


def bracket_with_drift(model: ModelSpec, field_fn, x, regime: int) -> np.ndarray:
    """[b(., regime), V] at x by central differences on the columns of V.

    field_fn maps a point (n,) to an (n, d') matrix of column fields.
    """
    x = np.asarray(x, dtype=float)
    n = model.n
    eta = FD_STEP_SCALE * (1.0 + float(np.linalg.norm(x)))
    v0 = np.asarray(field_fn(x), dtype=float)
    grad = np.empty((n,) + v0.shape)
    for c in range(n):
        e = np.zeros(n)
        e[c] = eta
        grad[c] = (np.asarray(field_fn(x + e)) - np.asarray(field_fn(x - e))) / (2 * eta)
    b = model.drift(x, regime)
    jac = model.drift_jac(x, regime)
    return np.einsum("c,crk->rk", b, grad) - jac @ v0


def _fd_bracket_fields(model: ModelSpec, x, regime: int, depth: int) -> list[np.ndarray]:
    sigma = np.asarray(model.sigma, dtype=float)

    def level(j):
        if j == 1:
            return lambda y: sigma
        prev = level(j - 1)
        return lambda y: bracket_with_drift(model, prev, y, regime)

    return [level(j)(np.asarray(x, dtype=float)) for j in range(1, depth + 1)]


def _analytic_bracket_fields(model: ModelSpec, x, regime: int, depth: int) -> list[np.ndarray]:
    """Leibniz recursion on derivative stacks.

    stacks[m] holds the order-m derivative tensor of the current bracket,
    shape (n,)*m + (n, d) with derivative axes first; the drift stacks come
    from the model with the component axis last.  Each level consumes one
    order of differentiability, so B_depth needs drift derivatives up to
    order depth - 1.
    """
    x = np.asarray(x, dtype=float)
    n, d = model.n, model.d
    b_stack = [model.drift(x, regime)]
    for m in range(1, depth):
        b_stack.append(np.asarray(model.drift_derivs(x, regime, m), dtype=float))
    sigma = np.asarray(model.sigma, dtype=float)
    stacks = [sigma] + [np.zeros((n,) * m + (n, d)) for m in range(1, depth)]
    fields = [sigma]
    for j in range(1, depth):
        top = depth - 1 - j
        nxt = []
        for m in range(top + 1):
            out = np.zeros((n,) * m + (n, d))
            for p in range(m + 1):
                q = m - p
                # (grad^{p} grad_c B) b^{(q)}_c on axes [alpha, beta, r, k]
                w1 = np.tensordot(stacks[p + 1], b_stack[q], axes=([p], [q]))
                w1 = np.moveaxis(w1, range(p + 2, p + 2 + q), range(p, p + q))
                # (grad^{p} grad_c b)_r (grad^{q} B)_{c k}
                w2 = np.tensordot(b_stack[p + 1], stacks[q], axes=([p], [q]))
                w2 = np.moveaxis(w2, p, p + q)
                w = w1 - w2
                for pos in itertools.combinations(range(m), p):
                    comp = [i for i in range(m) if i not in pos]
                    out += np.moveaxis(w, range(m), list(pos) + comp)
            nxt.append(out)
        stacks = nxt
        fields.append(stacks[0])
    return fields


@dataclass
class BracketSet:
    """Bracket matrices B_1..B_depth at one point and regime."""

    x: np.ndarray
    regime: int
    depth: int
    fields: list[np.ndarray]
    mode: str

    def gram(self, j0: int | None = None) -> np.ndarray:
        j0 = self.depth if j0 is None else j0
        if not 1 <= j0 <= self.depth:
            raise ValueError(f"j0 must lie in 1..{self.depth}")
        c = np.zeros((self.fields[0].shape[0],) * 2)
        for b in self.fields[:j0]:
            c += b @ b.T
        return c

    def min_eig(self, j0: int | None = None) -> float:
        return float(np.linalg.eigvalsh(self.gram(j0))[0])

    def depth_profile(self) -> np.ndarray:
        """Smallest Gram eigenvalue as brackets accumulate, one entry per depth."""
        return np.array([self.min_eig(j) for j in range(1, self.depth + 1)])

    def worst_direction(self) -> np.ndarray:
        vals, vecs = np.linalg.eigh(self.gram())
        return vecs[:, 0]

    def quadratic_form(self, v) -> float:
        v = np.asarray(v, dtype=float)
        return float(v @ self.gram() @ v)


def build_brackets(
    model: ModelSpec, x, regime: int, depth: int, mode: str = "auto"
) -> BracketSet:
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if not 1 <= regime <= model.rates.m0:
        raise ValueError(f"regime must lie in 1..{model.rates.m0}")
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"x must have shape ({model.n},)")
    if mode == "auto":
        mode = "analytic" if model.drift_derivs is not None else "fd"
    if mode == "analytic":
        if model.drift_derivs is None and depth > 1:
            raise UnsupportedConfigError(
                "analytic brackets need the model's drift derivative tensors"
            )
        fields = _analytic_bracket_fields(model, x, regime, depth)
    elif mode == "fd":
        fields = _fd_bracket_fields(model, x, regime, depth)
    else:
        raise ValueError(f"unknown bracket mode {mode!r}")
    return BracketSet(x=x, regime=regime, depth=depth, fields=fields, mode=mode)


def ball_points(center, radius: float, n_samples: int, seed: int = 0) -> np.ndarray:
    """Low-discrepancy points of the closed ball: scrambled Halton cube points
    clamped radially, with the center prepended."""
    from scipy.stats import qmc  # heavy to import, and only this sampler needs it

    center = np.atleast_1d(np.asarray(center, dtype=float))
    n = center.size
    h = qmc.Halton(d=n, scramble=True, seed=seed)
    y = 2.0 * h.random(n_samples) - 1.0
    r = np.linalg.norm(y, axis=1, keepdims=True)
    y = y / np.maximum(r, 1.0)
    return np.vstack([center, center + radius * y])


@dataclass
class KappaEstimate:
    """Sampled lower bound of the bracket-span certificate over a ball."""

    kappa1: float
    depth: int
    witness_x: np.ndarray
    witness_regime: int
    witness_direction: np.ndarray
    per_regime: dict = field(default_factory=dict)
    depth_profile: np.ndarray | None = None
    cross_check_min: float = float("nan")
    n_points: int = 0
    verdict: str = ""


def estimate_kappa1(
    model: ModelSpec,
    depth: int,
    center=None,
    radius: float = 1.0,
    n_samples: int = 64,
    regimes=None,
    mode: str = "auto",
    seed: int = 0,
    threshold: float = 1e-8,
    n_directions: int = 256,
) -> KappaEstimate:
    """Minimize the smallest cumulative-Gram eigenvalue over points and regimes.

    The inner minimum over unit directions is exact (an eigenvalue); a
    random-direction sweep at the witness cross-checks it from above.
    """
    if center is None:
        center = model.x0
    pts = ball_points(center, radius, n_samples, seed=seed)
    if regimes is None:
        regimes = range(1, model.rates.m0 + 1)
    best = None
    per_regime: dict[int, float] = {}
    for a in regimes:
        for x in pts:
            bs = build_brackets(model, x, int(a), depth, mode=mode)
            lam = bs.min_eig()
            if int(a) not in per_regime or lam < per_regime[int(a)]:
                per_regime[int(a)] = lam
            if best is None or lam < best[0]:
                best = (lam, bs)
    lam, bs = best
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_directions, model.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    gram = bs.gram()
    sweep = float(np.einsum("ij,jk,ik->i", dirs, gram, dirs).min())
    if sweep < lam - 1e-9 * (1.0 + abs(lam)):
        raise NumericError("direction sweep undercut the eigenvalue minimum")
    return KappaEstimate(
        kappa1=lam,
        depth=depth,
        witness_x=bs.x,
        witness_regime=bs.regime,
        witness_direction=bs.worst_direction(),
        per_regime=per_regime,
        depth_profile=bs.depth_profile(),
        cross_check_min=sweep,
        n_points=pts.shape[0],
        verdict="holds" if lam > threshold else "fails",
    )
