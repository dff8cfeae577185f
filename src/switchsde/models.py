"""Model zoo: drift/diffusion specifications with per-regime coefficients.

A model couples a drift b(x, i), its x-Jacobian, a constant diffusion matrix
sigma, and a rate matrix for the regime chain.  Regimes are 1-based.  The
callbacks are batched, in two layouts:

- drift(x, a) and drift_jac(x, a) take the state components-first,
  (n,) + lead: x[r] is component r over every path, with the paths on the
  last axis.  drift returns b in that layout and drift_jac returns
  (n, n) + lead, jac[r, c] = d b_r / d x_c.  The step loop holds its state
  and its flows that way and updates them in place.  A builder may also
  set drift_and_jac(x, a), which returns (drift(x, a), drift_jac(x, a))
  bit for bit from one call sharing their work; the step loop calls it
  when it needs the Jacobian, and drift and drift_jac apart when it is
  None.
- drift_derivs(x, a, m) takes x paths-first, lead + (n,), and puts its
  component axes last.

In both, the regime a is one regime or an array that broadcasts to lead,
so per-path regimes (P,) meet the trailing path axis.  At one point,
x of shape (n,), the two layouts coincide.  A custom drift for
b(x) = (x_1, -x_0 - 0.5 x_1) and its Jacobian read

    def drift(x, a):
        return np.stack([x[1], -x[0] - 0.5 * x[1]])

    def drift_jac(x, a):
        jac = np.zeros((2, 2) + np.shape(x)[1:])
        jac[0, 1], jac[1, 0], jac[1, 1] = 1.0, -1.0, -0.5
        return jac

Built-in families (registered by name):
    zero_drift        b = 0, single regime
    linear            b(x,i) = A_i x + c_i
    sin_bounded       b_r(x,i) = amp_i sin(freq_i x_{(r+1) mod n}), smooth and bounded
    two_regime_linear linear with two regimes and symmetric constant switching
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SpecError
from .switching import RateMatrixSpec, constant_rates, no_switching, sigmoid_two_state

FD_STEP_SCALE = 1e-5


class Rebuilt:
    """A spec that pickles as the builder call that made it, when one did.

    Its callbacks are closures, which do not pickle; the builder called again
    on the same arguments makes them anew, with the same bits.  ``recipe`` is
    an init=False field, which ``dataclasses.replace`` does not copy, so a
    changed spec pickles its own fields, or does not pickle.
    """

    def __reduce_ex__(self, protocol):
        if self.recipe is None:
            return super().__reduce_ex__(protocol)
        return self.recipe, ()


def recorded(builder):
    """builder, with each spec it returns recording the call as its recipe."""

    @functools.wraps(builder)
    def build(*args, **kwargs):
        spec = builder(*args, **kwargs)
        spec.recipe = functools.partial(build, *args, **kwargs)
        return spec

    return build


@dataclass
class ModelSpec(Rebuilt):
    """Coefficients of one regime-switching SDE.

    drift(x, a) takes x components-first, (n, ...), and returns b in the same
    layout; a broadcasts to the axes after the first.  drift_jac(x, a) takes
    the same x and returns (n, n, ...) with jac[r, c, ...] = d b_r / d x_c.
    drift_derivs(x, a, m), when available, takes x paths-first, (..., n), and
    returns the order-m derivative tensor with shape (..., n*m axes..., n),
    entry [a1..am, r] = d^m b_r / d x_a1 .. d x_am; it unlocks analytic
    bracket recursion.  grad_bound must dominate the operator norm of the
    Jacobian over all (x, regime).  affine = (mats (m0, n, n), shifts (m0, n)),
    when set, states that b(x, i) = mats[i-1] x + shifts[i-1]; the step loop
    then takes the drift from that data (``affine_rows``) instead of calling
    drift, and evolves the flows once per regime path instead of once per start.
    drift_and_jac(x, a), when a builder sets it, returns (drift(x, a),
    drift_jac(x, a)) bit for bit from one call; like ``recipe`` it is an
    init=False field, which ``dataclasses.replace`` does not copy, so a spec
    with a changed drift never keeps a joint call of the old one.
    A spec from a built-in builder pickles as that builder's call (``Rebuilt``).
    """

    name: str
    n: int
    d: int
    sigma: np.ndarray
    rates: RateMatrixSpec
    drift: Callable
    drift_jac: Callable
    grad_bound: float
    drift_derivs: Callable | None = None
    x0: np.ndarray = None
    alpha0: int = 1
    affine: tuple | None = None
    drift_and_jac: Callable | None = field(default=None, init=False, repr=False, compare=False)
    recipe: Callable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        if self.sigma.shape != (self.n, self.d):
            raise SpecError(f"sigma must have shape {(self.n, self.d)}, got {self.sigma.shape}")
        if self.x0 is None:
            self.x0 = np.zeros(self.n)
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (self.n,):
            raise SpecError(f"x0 must have shape ({self.n},), got {self.x0.shape}")
        if not 1 <= self.alpha0 <= self.rates.m0:
            raise SpecError(f"alpha0 must lie in 1..{self.rates.m0}, got {self.alpha0}")
        if self.grad_bound < 0:
            raise SpecError("grad_bound must be nonnegative")
        if self.affine is not None:
            mats, shifts = (np.asarray(v, dtype=float) for v in self.affine)
            m0, n = self.rates.m0, self.n
            if mats.shape != (m0, n, n) or shifts.shape != (m0, n):
                raise SpecError(
                    f"affine data must have shapes {(m0, n, n)} and {(m0, n)}, "
                    f"got {mats.shape} and {shifts.shape}"
                )
            self.affine = (mats, shifts)


def validate_model(model: ModelSpec, points=None, rtol: float = 1e-5) -> float:
    """Check drift_jac against central differences of drift at probe points.

    With affine data set, drift and drift_jac must also equal A_i x + c_i and
    A_i there.  Returns the worst scaled deviation; raises SpecError beyond rtol.
    """
    if points is None:
        rng = np.random.default_rng(2024)
        points = [model.x0] + [model.x0 + rng.normal(scale=0.7, size=model.n) for _ in range(3)]
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        eta = FD_STEP_SCALE * (1.0 + float(np.linalg.norm(x)))
        for a in range(1, model.rates.m0 + 1):
            jac = np.asarray(model.drift_jac(x, a), dtype=float)
            fd = np.empty_like(jac)
            for c in range(model.n):
                e = np.zeros(model.n)
                e[c] = eta
                fd[:, c] = (model.drift(x + e, a) - model.drift(x - e, a)) / (2 * eta)
            dev = float(np.abs(fd - jac).max() / (1.0 + np.abs(jac).max()))
            worst = max(worst, dev)
            if dev > rtol:
                raise SpecError(
                    f"drift Jacobian disagrees with finite differences by {dev:.2e} "
                    f"at x={x}, regime {a}"
                )
            if model.affine is None:
                continue
            A, c = model.affine[0][a - 1], model.affine[1][a - 1]
            for what, got, want in (("drift", model.drift(x, a), A @ x + c), ("Jacobian", jac, A)):
                dev = float(np.abs(np.asarray(got) - want).max() / (1.0 + np.abs(want).max()))
                worst = max(worst, dev)
                if dev > rtol:
                    raise SpecError(
                        f"affine data disagree with the {what} by {dev:.2e} at x={x}, regime {a}"
                    )
    return worst


def _regime_index(a):
    return np.asarray(a) - 1


# ---------------------------------------------------------------------------
# zero drift


@recorded
def make_zero_drift(n: int = 1, d: int | None = None, sigma=None, x0=None) -> ModelSpec:
    if d is None:
        d = n
    if sigma is None:
        sigma = np.eye(n, d)

    def drift(x, a):
        return np.zeros_like(np.asarray(x, dtype=float))

    def jac(x, a):
        return np.zeros((n, n) + np.shape(x)[1:])

    def derivs(x, a, order):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (n,) * order + (n,))

    return ModelSpec(
        name="zero_drift",
        n=n,
        d=d,
        sigma=sigma,
        rates=no_switching(),
        drift=drift,
        drift_jac=jac,
        drift_derivs=derivs,
        grad_bound=0.0,
        x0=x0,
        affine=(np.zeros((1, n, n)), np.zeros((1, n))),
    )


# ---------------------------------------------------------------------------
# linear drift


def _linear_terms(mats: np.ndarray, shifts: np.ndarray) -> list:
    """Per row of b, the (column, unit) terms the drift sums, in column order.

    A column whose coefficient is 0 in every regime is skipped.  For finite x
    that keeps the bits of the full column-by-column sum: a skipped term 0 x
    is a signed zero, so the partial sums differ at most in the sign of a
    zero, and the final + c_r maps every zero sum to +0 and leaves a nonzero
    one alone.  That fails only for c_r = -0.0, so such a row keeps every
    column.  unit marks a coefficient of exactly 1 with one regime, where
    1 x = x is used as is.
    """
    m0, n = mats.shape[:2]
    terms = []
    for r in range(n):
        negative_zero = np.any((shifts[:, r] == 0) & np.signbit(shifts[:, r]))
        cols = range(n) if negative_zero else np.flatnonzero(mats[:, r].any(axis=0)).tolist()
        terms.append([(col, m0 == 1 and mats[0, r, col] == 1.0) for col in cols])
    return terms


def affine_rows(mats: np.ndarray, shifts: np.ndarray):
    """The row evaluator of b(x, i) = A_i x + c_i, and the rows it can move.

    fill(x, a, out, lo=0) writes rows lo..lo+len(out)-1 of b(x, a) into out,
    x components-first, each row summed over its ``_linear_terms`` in column
    order, then shifted: no fused multiply-adds.  moved marks the rows with a
    nonzero coefficient, or a shift other than +0.0, in some regime; every
    other row of b is +0.0.
    """
    terms = _linear_terms(mats, shifts)
    moved = mats.any(axis=(0, 2)) | ((shifts != 0) | np.signbit(shifts)).any(axis=0)

    def fill(x, a, out, lo=0):
        ai = 0 if mats.shape[0] == 1 else _regime_index(a)  # one regime: scalar coefficients
        A, c = mats[ai], shifts[ai]  # (..., n, n) and (..., n), one per regime in a
        for r, row_terms in enumerate(terms[lo : lo + len(out)], lo):
            row = out[r - lo, ...]  # a view, also when x is one point
            if not row_terms:
                row[...] = c[..., r]
                continue
            (col, unit), *rest = row_terms
            if unit:
                np.copyto(row, x[col])
            else:
                np.multiply(A[..., r, col], x[col], out=row)
            for col, unit in rest:
                row += x[col] if unit else A[..., r, col] * x[col]
            row += c[..., r]
        return out

    return fill, moved


def _linear_callbacks(mats: np.ndarray, shifts: np.ndarray):
    n = mats.shape[1]
    fill, _ = affine_rows(mats, shifts)
    table = np.moveaxis(mats, 0, -1)  # (n, n, m0): entry [r, c] over the regimes

    def drift(x, a):
        x = np.asarray(x, dtype=float)
        return fill(x, a, np.empty(x.shape))

    def jac(x, a):
        ai = _regime_index(a)
        lead = np.broadcast_shapes(np.shape(x)[1:], ai.shape)
        # the regime axes of A meet the trailing axes of the state
        A = table[..., ai].reshape((n, n) + (1,) * (len(lead) - ai.ndim) + ai.shape)
        return np.broadcast_to(A, (n, n) + lead).copy()

    def derivs(x, a, order):
        x = np.asarray(x, dtype=float)
        base = x.shape[:-1]
        if order == 1:
            A = mats[_regime_index(a)]
            t = np.swapaxes(A, -1, -2)  # [c, r] = d b_r / d x_c
            return np.broadcast_to(t, np.broadcast_shapes(t.shape, base + (n, n))).copy()
        return np.zeros(base + (n,) * order + (n,))

    return drift, jac, derivs


@recorded
def make_linear(
    mats,
    shifts=None,
    sigma=None,
    rates: RateMatrixSpec | None = None,
    x0=None,
    alpha0: int = 1,
    name: str = "linear",
) -> ModelSpec:
    mats = np.asarray(mats, dtype=float)
    if mats.ndim == 2:
        mats = mats[None]
    m0, n = mats.shape[0], mats.shape[1]
    if mats.shape != (m0, n, n):
        raise SpecError(f"regime matrices must be square and stacked, got {mats.shape}")
    if shifts is None:
        shifts = np.zeros((m0, n))
    shifts = np.asarray(shifts, dtype=float).reshape(m0, n)
    if sigma is None:
        sigma = np.eye(n)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim == 1:
        sigma = sigma[:, None]
    if rates is None:
        rates = no_switching() if m0 == 1 else constant_rates(
            np.full((m0, m0), 1.0) - m0 * np.eye(m0)
        )
    if rates.m0 != m0:
        raise SpecError(f"rate matrix is {rates.m0}-state but {m0} regime matrices were given")
    drift, jac, derivs = _linear_callbacks(mats, shifts)
    bound = float(max(np.linalg.norm(A, ord=2) for A in mats))
    return ModelSpec(
        name=name,
        n=n,
        d=sigma.shape[1],
        sigma=sigma,
        rates=rates,
        drift=drift,
        drift_jac=jac,
        drift_derivs=derivs,
        grad_bound=bound,
        x0=x0,
        alpha0=alpha0,
        affine=(mats, shifts),
    )


@recorded
def make_kalman(x0=None) -> ModelSpec:
    """Canonical degenerate pair: b(x) = [[0,1],[0,0]] x, sigma = (0,1)^T.

    Noise enters the second coordinate only and reaches the first through the
    drift; the level-2 bracket closes the span exactly.
    """
    return make_linear(
        [[0.0, 1.0], [0.0, 0.0]], sigma=[[0.0], [1.0]], x0=x0, name="kalman"
    )


# ---------------------------------------------------------------------------
# smooth bounded drift


@recorded
def make_sin_bounded(
    n: int = 2,
    d: int | None = None,
    amp=(0.8, 0.5),
    freq=(1.0, 2.0),
    sigma=None,
    switch_rate: float = 1.0,
    x0=None,
    alpha0: int = 1,
) -> ModelSpec:
    """b_r(x, i) = amp_i * sin(freq_i * x_{(r+1) mod n}); C-infinity, all derivatives bounded."""
    amp = np.asarray(amp, dtype=float)
    freq = np.asarray(freq, dtype=float)
    if amp.shape != freq.shape or amp.ndim != 1:
        raise SpecError("amp and freq must be equal-length 1-d sequences, one entry per regime")
    m0 = amp.size
    if d is None:
        d = n
    if sigma is None:
        sigma = np.eye(n, d)
    if m0 == 1:
        rates = no_switching()
    else:
        q = switch_rate * (np.ones((m0, m0)) - m0 * np.eye(m0))
        rates = constant_rates(q)
    rows = np.arange(n)
    cols = (rows + 1) % n
    # amp, freq and amp * freq indexed by the 1-based regime itself (entry 0 unused)
    amp_at, freq_at, slope_at = (np.concatenate([[np.nan], v]) for v in (amp, freq, amp * freq))

    def drift(x, a):
        y = freq_at[a] * np.asarray(x, dtype=float)[cols]
        np.sin(y, out=y)
        y *= amp_at[a]
        return y

    def jac_at(y, a):  # the Jacobian from y = freq x[cols], which it overwrites
        np.cos(y, out=y)
        y *= slope_at[a]
        out = np.zeros((n,) + y.shape)
        out[rows, cols] = y
        return out

    def jac(x, a):
        return jac_at(freq_at[a] * np.asarray(x, dtype=float)[cols], a)

    def drift_and_jac(x, a):  # one freq x, then its sin and its cos
        y = freq_at[a] * np.asarray(x, dtype=float)[cols]
        b = np.sin(y)
        b *= amp_at[a]
        return b, jac_at(y, a)

    def derivs(x, a, order):
        x = np.asarray(x, dtype=float)
        ai = _regime_index(a)
        y = x[..., cols]
        # d^m sin(w y) / dy^m = w^m sin(w y + m pi/2)
        v = amp[ai][..., None] * freq[ai][..., None] ** order * np.sin(
            freq[ai][..., None] * y + order * np.pi / 2.0
        )
        base = np.broadcast_shapes(v.shape[:-1], x.shape[:-1])
        out = np.zeros(base + (n,) * order + (n,))
        for r in range(n):
            idx = (Ellipsis,) + (int(cols[r]),) * order + (r,)
            out[idx] = v[..., r]
        return out

    spec = ModelSpec(
        name="sin_bounded",
        n=n,
        d=d,
        sigma=sigma,
        rates=rates,
        drift=drift,
        drift_jac=jac,
        drift_derivs=derivs,
        grad_bound=float(np.max(np.abs(amp * freq))),
        x0=x0,
        alpha0=alpha0,
    )
    spec.drift_and_jac = drift_and_jac
    return spec


# ---------------------------------------------------------------------------
# two-regime linear with switching


@recorded
def make_two_regime_linear(
    mats=None,
    shifts=None,
    sigma=None,
    switch_rate: float = 1.0,
    state_dependent: bool = False,
    rate_direction=None,
    x0=None,
    alpha0: int = 1,
) -> ModelSpec:
    if mats is None:
        mats = [[[0.0, 1.0], [-1.0, -0.3]], [[-0.5, 0.2], [0.0, -0.8]]]
    mats = np.asarray(mats, dtype=float)
    if mats.shape[0] != 2:
        raise SpecError("two_regime_linear takes exactly two regime matrices")
    if sigma is None:
        sigma = [[0.0], [1.0]]
    if state_dependent:
        w = rate_direction if rate_direction is not None else np.ones(mats.shape[1])
        rates = sigmoid_two_state(switch_rate, w)
    else:
        rates = constant_rates([[-switch_rate, switch_rate], [switch_rate, -switch_rate]])
    return make_linear(
        mats,
        shifts=shifts,
        sigma=sigma,
        rates=rates,
        x0=x0,
        alpha0=alpha0,
        name="two_regime_linear",
    )


MODEL_BUILDERS = {
    "zero_drift": make_zero_drift,
    "linear": make_linear,
    "kalman": make_kalman,
    "sin_bounded": make_sin_bounded,
    "two_regime_linear": make_two_regime_linear,
}


def make_model(name: str, **params) -> ModelSpec:
    if name not in MODEL_BUILDERS:
        raise SpecError(f"unknown model {name!r}; known: {sorted(MODEL_BUILDERS)}")
    model = MODEL_BUILDERS[name](**params)
    validate_model(model)
    return model
