"""Jacobi flows, directional derivatives, and the reduced covariance.

Along a simulated path the forward flow J and its candidate inverse K evolve
by their own Euler recursions (K is never obtained by matrix inversion):

    J_{k+1} = J_k + grad_b(X_k, alpha_k) J_k dt_k,    J_0 = I,
    K_{k+1} = K_k - K_k grad_b(X_k, alpha_k) dt_k,    K_0 = I.

Both stay within exp(grad_bound * t) in operator norm, and the product J K
drifts from the identity only through the O(dt) commutator defect.  The
directional derivative D of the state with respect to a Cameron-Martin shift
h of the Brownian layer satisfies the same linearized recursion with forcing
sigma * dH(S), and the reduced covariance accumulates the left-endpoint
Stieltjes sums

    Q_t = sum_k K_{t_k} sigma sigma^T K_{t_k}^T dS_k,      M_t = J_t Q_t J_t^T.

For drift-free models K = I and M_t = S_t I (sigma = I), which the tests pin
to floating-point accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, UnsupportedConfigError
from .levy_noise import LevyMeasureSpec, as_rng
from .models import ModelSpec
from .sde_core import (
    OVERFLOW_GUARD,
    BatchNoise,
    CoupledPath,
    PerturbationSpec,
    sample_batch_noise,
    simulate_perturbed_path,
)


@dataclass
class FlowRecord:
    times: np.ndarray
    J: np.ndarray  # (K+1, n, n)
    K: np.ndarray  # (K+1, n, n)

    def product_defect(self) -> np.ndarray:
        """Frobenius norm of J_t K_t - I at every grid point."""
        eye = np.eye(self.J.shape[1])
        return np.linalg.norm(self.J @ self.K - eye, axis=(1, 2))

    def max_product_defect(self) -> float:
        return float(self.product_defect().max())

    def operator_norms(self) -> tuple[np.ndarray, np.ndarray]:
        nj = np.linalg.svd(self.J, compute_uv=False)[:, 0]
        nk = np.linalg.svd(self.K, compute_uv=False)[:, 0]
        return nj, nk

    def exp_bound_excess(self, grad_bound: float) -> float:
        """max over the grid of max(|J|, |K|) / exp(grad_bound * t) - 1."""
        nj, nk = self.operator_norms()
        envelope = np.exp(grad_bound * self.times)
        return float((np.maximum(nj, nk) / envelope).max() - 1.0)


def product_defect_tolerance(n: int, grad_bound: float, horizon: float, dt: float) -> float:
    """First-order bound on the flow-inverse defect of the Euler pair."""
    return 10.0 * n * grad_bound**2 * np.exp(2.0 * grad_bound * horizon) * dt


def evolve_flows(
    model: ModelSpec, path: CoupledPath, J0=None, K0=None
) -> FlowRecord:
    n = model.n
    steps = path.n_steps
    J = np.empty((steps + 1, n, n))
    K = np.empty((steps + 1, n, n))
    J[0] = np.eye(n) if J0 is None else np.asarray(J0, dtype=float)
    K[0] = np.eye(n) if K0 is None else np.asarray(K0, dtype=float)
    jacs = model.drift_jac(path.X[:-1], path.alpha[:-1])
    dts = np.diff(path.times)
    for k in range(steps):
        g = jacs[k] * dts[k]
        J[k + 1] = J[k] + g @ J[k]
        K[k + 1] = K[k] - K[k] @ g
    return FlowRecord(times=path.times, J=J, K=K)


@dataclass
class CovarianceRecord:
    times: np.ndarray
    Q: np.ndarray  # (K+1, n, n)
    M: np.ndarray  # (K+1, n, n)

    def min_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.Q)[:, 0]


def reduced_covariance(
    model: ModelSpec, path: CoupledPath, flow: FlowRecord
) -> CovarianceRecord:
    """Left-endpoint Stieltjes accumulation of K sigma sigma^T K^T against dS."""
    r = flow.K[:-1] @ model.sigma  # (steps, n, d)
    contrib = np.einsum("kad,kbd->kab", r, r) * path.dS[:, None, None]
    q = np.concatenate([np.zeros((1, model.n, model.n)), np.cumsum(contrib, axis=0)])
    m = flow.J @ q @ np.swapaxes(flow.J, 1, 2)
    return CovarianceRecord(times=path.times, Q=q, M=m)


@dataclass
class DirectionalDerivativeRecord:
    times: np.ndarray
    D: np.ndarray  # (K+1, n)
    pert: PerturbationSpec


def directional_derivative(
    model: ModelSpec, path: CoupledPath, pert: PerturbationSpec
) -> DirectionalDerivativeRecord:
    """Linearized response of the state to the shift h, at unit magnitude.

    D_{k+1} = D_k + grad_b(X_k, alpha_k) D_k dt_k + sigma dH_k with D_0 = 0,
    where dH_k is the exact increment of integral h over the subordinator step.
    """
    steps = path.n_steps
    H = pert.integral(path.S)
    dH = np.diff(H, axis=0) @ model.sigma.T
    D = np.zeros((steps + 1, model.n))
    jacs = model.drift_jac(path.X[:-1], path.alpha[:-1])
    dts = np.diff(path.times)
    for k in range(steps):
        D[k + 1] = D[k] + (jacs[k] @ D[k]) * dts[k] + dH[k]
    return DirectionalDerivativeRecord(times=path.times, D=D, pert=pert)


def representation_residual(
    model: ModelSpec,
    path: CoupledPath,
    flow: FlowRecord,
    deriv: DirectionalDerivativeRecord,
) -> float:
    """max_t | K_t D_t - sum_{s<=t} K_s sigma dH_s |, the flow-transport identity."""
    H = deriv.pert.integral(path.S)
    dH = np.diff(H, axis=0)
    forced = np.einsum("kab,kb->ka", flow.K[:-1] @ model.sigma, dH)
    rhs = np.vstack([np.zeros(model.n), np.cumsum(forced, axis=0)])
    lhs = np.einsum("kab,kb->ka", flow.K, deriv.D)
    return float(np.linalg.norm(lhs - rhs, axis=1).max())


@dataclass
class FDCheckResult:
    eps: np.ndarray
    state_residuals: np.ndarray
    chain_residuals: np.ndarray | None
    slope: float
    chain_slope: float | None


def finite_difference_check(
    model: ModelSpec,
    base: CoupledPath,
    pert: PerturbationSpec,
    eps_list,
    f=None,
    grad_f=None,
) -> FDCheckResult:
    """Compare (X^{eps h} - X) / eps against the directional derivative.

    Requires state-independent rates so the regime path is common to every
    magnitude.  With a smooth scalar observable f (and its gradient) the same
    first-order comparison is run through the chain rule.  Residuals are
    maxima over the grid; the returned slopes are log-log fits against eps
    and sit near 1 when the linearization is correct.
    """
    if model.rates.state_dependent:
        raise UnsupportedConfigError(
            "finite-difference check needs state-independent rates for common-noise coupling"
        )
    eps = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    if np.any(eps <= 0):
        raise ValueError("eps values must be positive")
    deriv = directional_derivative(model, base, pert)
    state_res = np.empty(eps.size)
    chain_res = np.empty(eps.size) if f is not None else None
    for i, e in enumerate(eps):
        shifted = simulate_perturbed_path(model, base, replace(pert, eps=float(e)))
        diff = (shifted.X - base.X) / e
        state_res[i] = np.linalg.norm(diff - deriv.D, axis=1).max()
        if f is not None:
            df = (f(shifted.X, shifted.alpha) - f(base.X, base.alpha)) / e
            lin = np.einsum("ka,ka->k", grad_f(base.X, base.alpha), deriv.D)
            chain_res[i] = np.abs(df - lin).max()
    slope = float(np.polyfit(np.log(eps), np.log(np.maximum(state_res, 1e-300)), 1)[0])
    chain_slope = None
    if f is not None:
        chain_slope = float(
            np.polyfit(np.log(eps), np.log(np.maximum(chain_res, 1e-300)), 1)[0]
        )
    return FDCheckResult(
        eps=eps,
        state_residuals=state_res,
        chain_residuals=chain_res,
        slope=slope,
        chain_slope=chain_slope,
    )


# ---------------------------------------------------------------------------
# batched flow evolution


@dataclass
class BatchFlowResult:
    X: np.ndarray  # (..., P, n)
    J: np.ndarray | None
    K: np.ndarray | None
    Q: np.ndarray | None


def batch_flows(
    model: ModelSpec,
    noise: BatchNoise,
    x0=None,
    K0=None,
    want_J: bool = False,
    want_Q: bool = True,
) -> BatchFlowResult:
    """Evolve state and flows for a bundle of paths sharing one grid.

    x0 (and K0) may carry extra leading axes over (n_paths, n); the noise
    broadcasts across them, which gives common-random-number bundles for
    finite-difference starts.
    """
    if x0 is None:
        x0 = model.x0
    x0 = np.asarray(x0, dtype=float)
    lead = np.broadcast_shapes(x0.shape[:-1], (noise.n_paths,))
    n = model.n
    x = np.broadcast_to(x0, lead + (n,)).copy()
    eye = np.eye(n)
    K = np.broadcast_to(eye if K0 is None else np.asarray(K0, dtype=float), lead + (n, n)).copy()
    J = np.broadcast_to(eye, lead + (n, n)).copy() if want_J else None
    Q = np.zeros(lead + (n, n)) if want_Q else None
    times = noise.times
    sqrt_dS = np.sqrt(noise.dS)
    sig = model.sigma
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        a = noise.alpha[:, k]
        if Q is not None:
            r = K @ sig  # (..., n, d)
            Q = Q + np.einsum("...ad,...bd->...ab", r, r) * noise.dS[:, k, None, None]
        g = model.drift_jac(x, a) * dt
        if want_J:
            J = J + g @ J
        K = K - K @ g
        dw = sqrt_dS[:, k, None] * noise.normals[:, k]
        x = x + model.drift(x, a) * dt + dw @ sig.T
        if not np.abs(x).max() <= OVERFLOW_GUARD:
            raise NumericError(f"a batched state left the trusted range at step {k + 1}")
    return BatchFlowResult(X=x, J=J, K=K, Q=Q)


def sample_covariances(
    model: ModelSpec,
    levy: LevyMeasureSpec,
    horizon: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    chunk: int = 20000,
) -> np.ndarray:
    """Monte Carlo draws of Q_horizon, shape (n_paths, n, n), chunk-seeded deterministically."""
    out = np.empty((n_paths, model.n, model.n))
    done = 0
    block = 0
    while done < n_paths:
        size = min(chunk, n_paths - done)
        rng = as_rng(np.random.SeedSequence([seed, 7001, block]))
        noise = sample_batch_noise(model, levy, horizon, n_steps, size, rng)
        res = batch_flows(model, noise, want_Q=True)
        out[done : done + size] = res.Q
        done += size
        block += 1
    return out
