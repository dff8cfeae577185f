"""Jacobi flows, directional derivatives, and checks of the flow pair.

Along a simulated path the forward flow J and its candidate inverse K evolve
by their own Euler recursions (K is never obtained by matrix inversion):

    J_{k+1} = J_k + grad_b(X_k, alpha_k) J_k dt_k,    J_0 = I,
    K_{k+1} = K_k - K_k grad_b(X_k, alpha_k) dt_k,    K_0 = I.

Both stay within exp(grad_bound * t) in operator norm, and the product J K
drifts from the identity only through the O(dt) commutator defect.  Both ride
along the state in the one step loop, ``sde_core.batch_flows`` (re-exported
here), which holds them components-first, (n, n, ..., paths), sums each
product grad_b J and K grad_b column by column, and returns them paths-first,
(..., paths, n, n), recorded at every grid point with ``record=True``;
``product_defect`` and ``exp_bound_excess`` measure both properties on any
stack of recorded flows.
The same loop accumulates the reduced covariance, the left-endpoint
Stieltjes sums

    Q_t = sum_k K_{t_k} sigma sigma^T K_{t_k}^T dS_k,      M_t = J_t Q_t J_t^T,

which ``batch_flows(want_Q=True, record=True)`` returns at every grid point;
``sample_covariances`` draws Q_T over many paths, as ``switchsde tails``
does by calling it.
For drift-free models K = I and M_t = S_t I (sigma = I), which the tests pin
to floating-point accuracy.  The directional derivative D of the state with
respect to a Cameron-Martin shift h of the Brownian layer satisfies the same
linearized recursion as J with forcing sigma * dH(S).  The checks below take
a bundle's noise and its recorded ``batch_flows`` result and work over every
path of the bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial, reduce

import numpy as np

from .errors import DataError, UnsupportedConfigError
from .levy_noise import LevyMeasureSpec
from .models import ModelSpec
from . import sde_core
from .sde_core import (
    STREAM_TAILS,
    BatchFlowResult,
    BatchNoise,
    PerturbationSpec,
    batch_flows,
    bundle_ranges,
)


def product_defect(J: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Frobenius norm of J K - I for stacks of flows with any leading axes."""
    return np.linalg.norm(J @ K - np.eye(J.shape[-1]), axis=(-2, -1))


def exp_bound_excess(
    J: np.ndarray, K: np.ndarray, times: np.ndarray, grad_bound: float
) -> float:
    """max over all grid points of max(|J|, |K|) / exp(grad_bound * t) - 1.

    J and K are (..., K+1, n, n) with any leading axes; times broadcasts
    against their grid axes.  The SVD runs only at the points where the
    maximum can be.  |A|_2^2 is the largest eigenvalue of the Gram matrix A^T A,
    so it lies between the Gram's largest diagonal entry (a column's squared
    norm) and its largest absolute row sum (Gershgorin); a point whose upper
    bound is below the best lower bound (less a 1e-12 relative slack for
    rounding) cannot attain the maximum.  The Gram entries are elementwise
    sums over the whole stack, with no per-point matrix product.
    """
    n = J.shape[-1]
    lead = np.broadcast_shapes(J.shape[:-2], K.shape[:-2], np.shape(times))
    J, K = (np.broadcast_to(v, lead + (n, n)) for v in (J, K))
    envelope = np.broadcast_to(np.exp(grad_bound * times), lead)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN bounds select the point
        (low_j, high_j), (low_k, high_k) = _gram_bounds(J), _gram_bounds(K)
    lower = np.sqrt(np.maximum(low_j, low_k)) / envelope
    upper = np.sqrt(np.maximum(high_j, high_k)) / envelope
    at = ~(upper < lower.max() * (1.0 - 1e-12))  # every point when NaN
    nj = np.linalg.svd(J[at], compute_uv=False)[:, 0]
    nk = np.linalg.svd(K[at], compute_uv=False)[:, 0]
    return float((np.maximum(nj, nk) / envelope[at]).max() - 1.0)


def _gram_bounds(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest diagonal entry and the largest absolute row sum of each A^T A in a stack.

    Each Gram entry is summed over the rows of A elementwise over the whole stack.
    """
    n = A.shape[-1]
    gram = {}
    for i in range(n):
        for j in range(i, n):
            g = A[..., 0, i] * A[..., 0, j]
            for r in range(1, n):
                g += A[..., r, i] * A[..., r, j]
            gram[i, j] = gram[j, i] = g
    diagonal = reduce(np.maximum, (gram[i, i] for i in range(n)))
    row_sums = reduce(np.maximum, (sum(np.abs(gram[i, j]) for j in range(n)) for i in range(n)))
    return diagonal, row_sums


def product_defect_tolerance(n: int, grad_bound: float, horizon: float, dt: float) -> float:
    """First-order bound on the flow-inverse defect of the Euler pair."""
    return 10.0 * n * grad_bound**2 * np.exp(2.0 * grad_bound * horizon) * dt


def _driver_shift(model: ModelSpec, noise: BatchNoise, pert: PerturbationSpec) -> np.ndarray:
    """sigma dH_k with dH_k = H(S_{t_{k+1}}) - H(S_{t_k}) at unit magnitude, (P, K, n)."""
    return np.diff(pert.integral(noise.clock()), axis=1) @ model.sigma.T


def perturbation_shift(model: ModelSpec, noise: BatchNoise, pert: PerturbationSpec):
    """State shift per step of the run perturbed by eps * h, or None at eps = 0.

    Pass it as ``batch_flows(model, noise, shift=...)``: the same noise and
    event marks drive the perturbed run, with the regime evaluated at the
    perturbed left limits.
    """
    if pert.d != model.d:
        raise DataError(f"perturbation direction has d={pert.d}, model expects {model.d}")
    return pert.eps * _driver_shift(model, noise, pert) if pert.eps != 0.0 else None


@dataclass
class DirectionalDerivativeRecord:
    times: np.ndarray
    D: np.ndarray  # (P, K+1, n)
    pert: PerturbationSpec


def directional_derivative(
    model: ModelSpec, noise: BatchNoise, res: BatchFlowResult, pert: PerturbationSpec
) -> DirectionalDerivativeRecord:
    """Linearized response of each recorded path to the shift h, at unit magnitude.

    D_{k+1} = D_k + grad_b(X_k, alpha_k) D_k dt_k + sigma dH_k with D_0 = 0,
    where dH_k is the exact increment of integral h over the subordinator step.
    The Jacobians come from one components-first ``drift_jac`` call over the
    recorded path.
    """
    dH = _driver_shift(model, noise, pert)
    P, steps = noise.dS.shape
    D = np.zeros((P, steps + 1, model.n))
    x = np.moveaxis(res.X_path[:, :-1], -1, 0)  # drift_jac is components-first
    jacs = np.ascontiguousarray(
        np.moveaxis(model.drift_jac(x, res.alpha_path[:, :-1]), (0, 1), (-2, -1))
    )
    dts = np.diff(np.broadcast_to(noise.times, (P, steps + 1)), axis=1)
    for k in range(steps):
        drift = (jacs[:, k] @ D[:, k, :, None])[..., 0] * dts[:, k, None]
        D[:, k + 1] = D[:, k] + drift + dH[:, k]
    return DirectionalDerivativeRecord(times=noise.times, D=D, pert=pert)


def representation_residual(
    model: ModelSpec,
    noise: BatchNoise,
    res: BatchFlowResult,
    deriv: DirectionalDerivativeRecord,
) -> float:
    """max over paths and t of | K_t D_t - sum_{s<=t} K_s sigma dH_s |.

    This is the residual of the flow-transport identity.
    """
    K = res.K_path
    forced = np.einsum("pkab,pkb->pka", K[:, :-1], _driver_shift(model, noise, deriv.pert))
    rhs = np.concatenate([np.zeros_like(forced[:, :1]), np.cumsum(forced, axis=1)], axis=1)
    lhs = np.einsum("pkab,pkb->pka", K, deriv.D)
    return float(np.linalg.norm(lhs - rhs, axis=-1).max())


@dataclass
class FDCheckResult:
    eps: np.ndarray
    state_residuals: np.ndarray
    chain_residuals: np.ndarray | None
    slope: float
    chain_slope: float | None


def finite_difference_check(
    model: ModelSpec,
    noise: BatchNoise,
    res: BatchFlowResult,
    pert: PerturbationSpec,
    eps_list,
    f=None,
    grad_f=None,
) -> FDCheckResult:
    """Compare (X^{eps h} - X) / eps against the directional derivative.

    res is ``batch_flows(model, noise, record=True)`` from the model's start.
    Requires state-independent rates so the regime path is common to every
    magnitude.  With a smooth scalar observable f (and its gradient) the same
    first-order comparison is run through the chain rule.  Residuals are
    maxima over the grid and the paths; the returned slopes are log-log fits
    against eps and sit near 1 when the linearization is correct.
    """
    if model.rates.state_dependent:
        raise UnsupportedConfigError(
            "finite-difference check needs state-independent rates for common-noise coupling"
        )
    eps = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    if np.any(eps <= 0):
        raise ValueError("eps values must be positive")
    deriv = directional_derivative(model, noise, res, pert)
    X, alpha = res.X_path, res.alpha_path
    state_res = np.empty(eps.size)
    chain_res = np.empty(eps.size) if f is not None else None
    for i, e in enumerate(eps):
        shift = perturbation_shift(model, noise, replace(pert, eps=float(e)))
        shifted = batch_flows(model, noise, shift=shift, want_Q=False, want_K=False, record=True)
        diff = (shifted.X_path - X) / e
        state_res[i] = np.linalg.norm(diff - deriv.D, axis=-1).max()
        if f is not None:
            df = (f(shifted.X_path, shifted.alpha_path) - f(X, alpha)) / e
            lin = np.einsum("pka,pka->pk", grad_f(X, alpha), deriv.D)
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


def sample_covariances(
    model: ModelSpec,
    levy: LevyMeasureSpec,
    horizon: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Monte Carlo draws of Q_horizon, shape (n_paths, n, n).

    The paths are drawn from their seed blocks on STREAM_TAILS and integrated
    in the bundles of ``switchsde tails`` (``bundle_ranges``), so at the same
    seed these are the covariances it reads; the bundles run on up to
    `workers` processes (``map_bundles``).
    """
    if n_paths < 1:
        raise ValueError(f"need n_paths >= 1, got {n_paths}")
    ranges = bundle_ranges(n_paths, n_steps, model.d, tasks=workers)
    body = partial(_terminal_covariance, model)
    parts, _ = sde_core.map_bundles(
        body, model, levy, horizon, n_steps, seed, STREAM_TAILS, ranges, workers
    )
    return np.concatenate(parts)


def _terminal_covariance(model: ModelSpec, noise: BatchNoise, lo: int, hi: int) -> np.ndarray:
    return batch_flows(model, noise, want_Q=True).Q
