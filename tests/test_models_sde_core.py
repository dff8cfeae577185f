"""Tests for the model builders and the coupled Euler engine.

Recorded paths are checked by re-deriving every step from the noise record
with plain arithmetic, row by row; perturbed runs and frozen-regime windows
re-integrate the same noise.
"""

import math
import os
import pickle
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchsde import (
    MODEL_BUILDERS,
    BatchNoise,
    DataError,
    LevyMeasureSpec,
    ModelSpec,
    NumericError,
    PerturbationSpec,
    SpecError,
    UnsupportedConfigError,
    batch_flows,
    NorrisParams,
    constant_direction,
    constant_field,
    constant_rates,
    make_kalman,
    make_linear,
    make_model,
    make_sin_bounded,
    make_two_regime_linear,
    make_zero_drift,
    no_switching,
    perturbation_shift,
    sample_batch_noise,
    sample_increments,
    scaled_cos_field,
    validate_model,
    window_integrals,
)
from switchsde.cli import main
from switchsde.sde_core import (
    NOISE_PANEL,
    SEED_BLOCK,
    _block_grid,
    bundle_ranges,
    map_bundles,
    seed_blocks,
)

LEVY = LevyMeasureSpec(alpha=1.0)
LEVY_TRUNC = LevyMeasureSpec(alpha=1.0, upper_cutoff=1.0)

PADDING_MODELS = {
    "zero_drift": make_zero_drift(n=2, d=1, sigma=[[0.0], [1.0]]),
    "linear": make_linear([[0.0, 1.0], [-1.0, -0.2]]),
    "sin_bounded": make_sin_bounded(n=2, amp=(0.8, 0.5), freq=(1.0, 2.0)),
    "two_regime_linear": make_two_regime_linear(switch_rate=3.0),
    "two_regime_linear_state": make_two_regime_linear(
        switch_rate=3.0, state_dependent=True, rate_direction=[1.0, 0.0]
    ),
}


@pytest.mark.parametrize(
    "model",
    [
        make_zero_drift(n=2, d=1, sigma=[[0.0], [1.0]]),
        make_linear([[0.0, 1.0], [-1.0, 0.0]]),
        make_kalman(),
        make_sin_bounded(n=2, amp=(0.8, 0.5), freq=(1.0, 2.0)),
        make_two_regime_linear(),
    ],
    ids=lambda m: m.name,
)
def test_builders_pass_jacobian_check(model):
    assert validate_model(model) < 1e-5
    assert model.sigma.shape == (model.n, model.d)


def test_validate_model_catches_wrong_jacobian():
    model = make_kalman()
    broken = ModelSpec(
        name="broken",
        n=2,
        d=1,
        sigma=model.sigma,
        rates=model.rates,
        drift=model.drift,
        drift_jac=lambda x, a: np.zeros((2, 2)),
        grad_bound=1.0,
    )
    with pytest.raises(SpecError):
        validate_model(broken)


def test_validate_model_rejects_disagreeing_affine_data(monkeypatch, tmp_path):
    model = make_kalman()
    mats, shifts = model.affine
    wrong = replace(model, affine=(mats + 0.5, shifts))
    for spec in (wrong, replace(model, affine=(mats, shifts + 1.0))):
        with pytest.raises(SpecError, match="affine data disagree"):
            validate_model(spec)
    with pytest.raises(SpecError, match="affine data must have shapes"):
        replace(model, affine=(np.zeros((2, 2, 2)), np.zeros((2, 2))))
    # make_model validates every model it builds, so the CLI exits 2 on such a spec
    monkeypatch.setitem(MODEL_BUILDERS, "kalman", lambda: wrong)
    with pytest.raises(SpecError):
        make_model("kalman")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": {"name": "kalman"}}')
    assert main(["hormander", "--config", str(cfg)]) == 2


def test_model_spec_shape_errors():
    base = make_kalman()
    with pytest.raises(SpecError):
        ModelSpec(
            name="bad",
            n=2,
            d=1,
            sigma=np.zeros((1, 1)),
            rates=base.rates,
            drift=base.drift,
            drift_jac=base.drift_jac,
            grad_bound=1.0,
        )
    with pytest.raises(SpecError):
        make_kalman(x0=[1.0, 2.0, 3.0])
    with pytest.raises(SpecError):
        make_sin_bounded(n=2, sigma=[[1.0], [0.0]])  # d defaults to n here


def test_linear_derivative_stack():
    A = np.array([[0.5, -1.0], [2.0, 0.25]])
    model = make_linear(A)
    x = np.array([0.3, -0.7])
    np.testing.assert_allclose(model.drift(x, 1), A @ x)
    np.testing.assert_allclose(model.drift_jac(x, 1), A)
    # deriv[a1, r] = d b_r / d x_a1 = A[r, a1]
    np.testing.assert_allclose(model.drift_derivs(x, 1, 1), A.T)
    np.testing.assert_allclose(model.drift_derivs(x, 1, 2), np.zeros((2, 2, 2)))


def test_sin_bounded_derivatives_match_differences():
    model = make_sin_bounded(n=3, amp=(0.5,), freq=(1.7,))
    x = np.array([0.2, -1.1, 0.4])
    eta = 1e-6
    d2 = model.drift_derivs(x, 1, 2)
    for a1 in range(3):
        e = np.zeros(3)
        e[a1] = eta
        fd = (model.drift_jac(x + e, 1) - model.drift_jac(x - e, 1)) / (2 * eta)
        # fd[r, c] = d^2 b_r / d x_a1 d x_c = d2[a1, c, r]
        np.testing.assert_allclose(d2[a1].T, fd, atol=1e-6)
    # drift stays bounded by amp
    big = model.drift(100.0 * np.ones(3), 1)
    assert np.all(np.abs(big) <= 0.5 + 1e-12)


def test_make_model_registry():
    model = make_model("kalman")
    assert model.name == "kalman" and model.n == 2 and model.d == 1
    with pytest.raises(SpecError):
        make_model("no_such_model")


# a spec of every builder, with arguments other than the defaults
PICKLED_MODELS = {
    "zero_drift": lambda: make_zero_drift(2, 2),
    "linear": lambda: make_model(
        "linear", mats=[[[0.0, 1.0], [-1.0, -0.2]], [[-0.5, 0.0], [0.3, -0.1]]], x0=[0.3, -0.2]
    ),
    "kalman": lambda: make_kalman(x0=[0.5, -1.0]),
    "sin_bounded": lambda: make_sin_bounded(3, amp=(0.8, 0.5, 0.2), freq=(1.0, 2.0, 3.0)),
    "two_regime_linear": lambda: make_two_regime_linear(
        switch_rate=3.0, state_dependent=True, rate_direction=[1.0, -0.5]
    ),
}


def _same_bits(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_built_in_specs_pickle_as_their_builder_call(name):
    model = PICKLED_MODELS[name]()
    copy = pickle.loads(pickle.dumps(model))
    assert copy is not model and copy.recipe is not None
    assert _same_bits(copy.sigma, model.sigma) and _same_bits(copy.x0, model.x0)
    rng = np.random.default_rng(17)
    x = rng.normal(scale=2.0, size=(model.n, 6))  # components-first: six points
    a = rng.integers(1, model.rates.m0 + 1, size=6)
    assert _same_bits(copy.drift(x, a), model.drift(x, a))
    assert _same_bits(copy.drift_jac(x, a), model.drift_jac(x, a))
    for point in x.T:
        assert _same_bits(copy.rates.at(point), model.rates.at(point))
    assert copy.rates.state_dependent == model.rates.state_dependent


@pytest.mark.parametrize(
    "make",
    [
        lambda: constant_field([[0.0], [1.0]]),
        lambda: scaled_cos_field(np.eye(2), amp=2.0, freq=1.5),
    ],
    ids=["constant", "scaled_cos"],
)
def test_test_fields_pickle_as_their_builder_call(make):
    fld = make()
    copy = pickle.loads(pickle.dumps(fld))
    x = np.random.default_rng(19).normal(size=(5, 3, 2))  # paths-first
    assert copy.name == fld.name and copy.dv == fld.dv
    assert _same_bits(copy.value(x, 1), fld.value(x, 1))
    assert _same_bits(copy.jac(x, 1), fld.jac(x, 1))


def test_a_replaced_spec_keeps_no_recipe():
    # replace does not copy the recipe, which would rebuild the affine data
    model = replace(make_kalman(), affine=None)
    assert model.recipe is None
    with pytest.raises(Exception):
        pickle.dumps(model)


def _terminal_states(model, noise, lo, hi):
    return batch_flows(model, noise, want_Q=False, want_K=False).X


def test_map_bundles_runs_an_unpicklable_spec_in_this_process():
    ranges = bundle_ranges(130, 16, 1, tasks=2)
    assert len(ranges) == 2
    runs = {}
    replaced = replace(make_kalman(), affine=None)
    for label, model in (("built", make_kalman()), ("replaced", replaced)):
        for workers in (1, 2):
            body = partial(_terminal_states, model)
            parts, used = map_bundles(body, model, LEVY, 1.0, 16, 3, 11, ranges, workers)
            runs[label, workers] = (np.concatenate(parts), used)
    assert runs["built", 2][1] == 2 and runs["replaced", 2][1] == 1
    assert runs["built", 1][1] == runs["replaced", 1][1] == 1
    want = runs["built", 1][0]
    assert want.shape == (130, 2)
    assert all(_same_bits(x, want) for x, _ in runs.values())


def test_importing_the_package_loads_no_process_pool():
    # concurrent.futures costs 11-22 ms at import, which every CLI call would pay
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, switchsde; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0 and out.stdout.strip() == "False"


def test_grid_building_and_lookup():
    # a path's grid is the uniform grid plus its event times, in time order
    model = make_two_regime_linear(switch_rate=3.0)
    one = sample_batch_noise(model, LEVY, 1.0, 4, 1, seed=0)
    index = [j for _, j, _ in one.events]
    times = one.times[0, : 5 + len(index)]
    assert len(index) == 3
    expect = np.sort(np.concatenate([np.linspace(0.0, 1.0, 5), times[index]]))
    assert times.tobytes() == expect.tobytes()
    # a window opens at an event time and closes at the horizon, not between grid points
    for j in index:
        assert one.window(times[j], 1.0).times[0].tobytes() == times[j:].tobytes()
    with pytest.raises(DataError):
        one.window(0.5 * (times[1] + times[2]), 1.0)
    # a bundle pads every path's refined grid with repeats of the horizon
    noise = sample_batch_noise(model, LEVY, 1.0, 4, 6, seed=1)
    counts = np.bincount([p for p, _, _ in noise.events], minlength=6)
    assert noise.dS.shape[1] == 4 + counts.max() + counts.max() % 2
    for p in range(6):
        real = noise.times[p, : 5 + counts[p]]
        assert np.all(np.diff(real) >= 0) and np.all(noise.times[p, 5 + counts[p] :] == 1.0)
        assert np.all(np.isin(np.linspace(0.0, 1.0, 5), real))


def test_events_land_on_their_own_times():
    # each event's grid index points at the time drawn for it, and a path's
    # events come in time order with their marks
    model = make_two_regime_linear(switch_rate=3.0)
    times, events = _block_grid(model, np.linspace(0.0, 1.0, 9), 40, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    rate = model.rates.mark_space()
    counts = rng.poisson(rate, 40)
    drawn = rng.uniform(0.0, 1.0, counts.sum())
    marks = rng.uniform(0.0, rate, counts.sum())
    want = sorted(zip(np.repeat(np.arange(40), counts).tolist(), drawn.tolist(), marks.tolist()))
    assert [(p, times[p, j], mark) for p, j, mark in events] == want


class _PlantedDraws:
    """A generator stub whose poisson and uniform calls return planted arrays, in call order."""

    def __init__(self, *draws):
        self.draws = [np.asarray(v) for v in draws]

    def _next(self, *args):
        size = args[-1]
        value = self.draws.pop(0)
        assert value.shape == (size,)
        return value

    poisson = uniform = _next


def _sorted_block_grid(grid, counts, drawn, marks):
    """The refined grid and events by a stable sort of each padded row, the reference rule."""
    n_steps, horizon, extra = grid.size - 1, grid[-1], int(counts.max())
    path = np.repeat(np.arange(counts.size), counts)
    col = n_steps + 1 + np.arange(drawn.size) - np.repeat(np.cumsum(counts) - counts, counts)
    pts = np.full((counts.size, n_steps + 1 + extra + extra % 2), horizon)
    pts[:, : n_steps + 1] = grid
    pts[path, col] = drawn
    order = np.argsort(pts, axis=1, kind="stable")  # grid first, then events in draw order
    index = np.argsort(order, axis=1)[path, col]  # where each event's column landed
    keep = np.lexsort((index, path))
    events = list(zip(path[keep].tolist(), index[keep].tolist(), marks[keep].tolist()))
    return np.take_along_axis(pts, order, axis=1), events


@pytest.mark.parametrize("n_steps", [1, 4, 9])
def test_block_grid_places_events_as_a_stable_sort_does(n_steps):
    # event times planted on grid points (0 and the horizon included), on each
    # other and between: each lands after the grid points at its time and after
    # its path's earlier-drawn events at the same time, as a stable sort puts it
    model = make_two_regime_linear(switch_rate=2.0)
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    rng = np.random.default_rng(n_steps)
    for _ in range(50):
        counts = rng.integers(0, 6, 7)
        counts[rng.integers(7)] += 1  # one event at least
        total = int(counts.sum())
        pool = np.concatenate([grid, rng.uniform(0.0, 1.0, 3)])
        planted = rng.uniform(size=total) < 0.7
        drawn = np.where(planted, rng.choice(pool, total), rng.uniform(size=total))
        marks = rng.uniform(0.0, model.rates.mark_space(), total)
        times, events = _block_grid(model, grid, 7, _PlantedDraws(counts, drawn, marks))
        want_times, want_events = _sorted_block_grid(grid, counts, drawn, marks)
        assert times.tobytes() == want_times.tobytes()
        assert events == want_events


def _one_path(model, levy, n_steps, seed, **kw):
    """A one-path bundle, its recorded run and its real grid times."""
    noise = sample_batch_noise(model, levy, 1.0, n_steps, 1, seed)
    res = batch_flows(model, noise, record=True, **kw)
    times = np.atleast_2d(noise.times)[0, : n_steps + 1 + len(noise.events)]
    return noise, res, times


def test_euler_steps_rederived_from_noise_record():
    model = make_two_regime_linear()
    noise, res, times = _one_path(model, LEVY, 32, 42)
    assert times[0] == 0.0 and times[-1] == 1.0 and noise.events
    S = noise.clock()[0]
    assert S[0] == 0.0
    np.testing.assert_allclose(noise.dS[0], np.diff(S))
    x = model.x0.copy()
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        dw = math.sqrt(noise.dS[0, k]) * noise.normals[0, k]
        x = x + model.drift(x, res.alpha_path[0, k]) * dt + model.sigma @ dw
        np.testing.assert_allclose(x, res.X_path[0, k + 1], rtol=1e-12, atol=1e-14)


def test_regime_changes_at_event_times():
    model = make_two_regime_linear()
    found = False
    for seed in range(30):
        noise, res, times = _one_path(model, LEVY, 16, seed, want_Q=False)
        alpha = res.alpha_path[0, : times.size]
        if np.any(np.diff(alpha) != 0):
            found = True
            k = int(np.flatnonzero(np.diff(alpha))[0]) + 1
            # the regime flip lands exactly on a recorded event time
            assert k in [j for _, j, _ in noise.events]
    assert found


def test_perturbation_table_arithmetic():
    pert = PerturbationSpec(breakpoints=[0.0, 1.0, 2.0], values=[[1.0], [-2.0]], eps=0.1)
    assert pert.d == 1
    u = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 7.0])
    np.testing.assert_allclose(
        pert.integral(u)[:, 0], [0.0, 0.5, 1.0, 0.0, -1.0, -1.0]
    )
    with pytest.raises(DataError):
        PerturbationSpec(breakpoints=[0.0, 1.0], values=[[1.0], [2.0]])
    with pytest.raises(DataError):
        PerturbationSpec(breakpoints=[1.0, 0.5], values=[[1.0]])


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(sorted(PADDING_MODELS)), seed=st.integers(0, 2**32 - 1))
def test_zero_eps_reproduces_base_bitwise(family, seed):
    model = PADDING_MODELS[family]
    noise, base, _ = _one_path(model, LEVY, 64, seed, want_J=True)
    pert = constant_direction([1.0] * model.d, upto=10.0)  # eps defaults to 0
    shift = perturbation_shift(model, noise, pert)
    assert shift is None
    again = batch_flows(model, noise, shift=shift, want_J=True, record=True)
    for name in ("X_path", "alpha_path", "J_path", "K_path"):
        assert getattr(again, name).tobytes() == getattr(base, name).tobytes(), name


def test_perturbed_zero_drift_shifts_by_integral():
    # with b = 0 the shift accumulates exactly: X_eps - X = eps sigma H(S_t)
    model = make_zero_drift(n=2, d=2)
    noise, base, _ = _one_path(model, LEVY, 32, 8)
    pert = PerturbationSpec(
        breakpoints=[0.0, 2.0, 5.0], values=[[1.0, 0.0], [0.0, -1.0]], eps=0.25
    )
    shifted = batch_flows(model, noise, shift=perturbation_shift(model, noise, pert), record=True)
    expect = base.X_path + 0.25 * pert.integral(noise.clock()) @ model.sigma.T
    np.testing.assert_allclose(shifted.X_path, expect, rtol=1e-12, atol=1e-14)


def test_perturbed_path_rejects_wrong_direction_width():
    model = make_zero_drift(n=2, d=2)
    noise = sample_batch_noise(model, LEVY, 1.0, 8, 1, seed=1)
    with pytest.raises(DataError):
        perturbation_shift(model, noise, constant_direction([1.0], upto=1.0))


def _index_of(noise, t):
    """Each path's first grid index at time t."""
    times = np.broadcast_to(noise.times, (noise.n_paths, noise.times.shape[-1]))
    return np.argmax(np.abs(times - t) <= 1e-10, axis=1)


def test_frozen_regime_window():
    model = make_two_regime_linear()
    noise, base, times = _one_path(model, LEVY, 32, 11)
    win = replace(noise.window(0.25, 0.75), events=[])
    (k1,) = _index_of(noise, 0.25)
    frozen = batch_flows(
        model, win, x0=base.X_path[:, k1], K0=base.K_path[:, k1], alpha0=2, record=True
    )
    wtimes = np.atleast_2d(win.times)[0]
    assert times[k1] == wtimes[0] == 0.25 and wtimes[-1] == 0.75
    assert np.all(frozen.alpha_path == 2)
    assert frozen.X_path[0, 0].tobytes() == base.X_path[0, k1].tobytes()
    x = base.X_path[0, k1].copy()
    for k in range(wtimes.size - 1):
        dt = wtimes[k + 1] - wtimes[k]
        dw = math.sqrt(noise.dS[0, k1 + k]) * noise.normals[0, k1 + k]
        x = x + model.drift(x, 2) * dt + model.sigma @ dw
        np.testing.assert_allclose(x, frozen.X_path[0, k + 1], rtol=1e-12)
    with pytest.raises(ValueError):
        noise.window(0.75, 0.25)
    with pytest.raises(DataError):
        noise.window(0.25, 0.3)  # 0.3 is not on the grid of step 1/32
    params = NorrisParams(window=(0.0, 0.5), regime=5, direction=[1.0, 0.0], eps_grid=[0.1])
    with pytest.raises(ValueError):
        window_integrals(model, noise, params, scaled_cos_field(model.sigma))


def test_window_of_a_switching_bundle_slices_each_path():
    # paths with different event counts reach t1 and t2 at different grid indices
    model = make_two_regime_linear(switch_rate=3.0)
    noise = sample_batch_noise(model, LEVY, 1.0, 32, 6, seed=5)
    counts = np.bincount([p for p, _, _ in noise.events], minlength=6)
    assert len(set(counts.tolist())) > 1
    win, k1 = noise.window(0.25, 0.75), _index_of(noise, 0.25)
    width = win.dS.shape[1]
    for p in range(6):
        row = noise.times[p]
        k2 = int(np.flatnonzero(np.abs(row - 0.75) <= 1e-10)[0])
        assert row[k1[p]] == 0.25 and not np.any(np.abs(row[: k1[p]] - 0.25) <= 1e-10)
        real = k2 - k1[p]
        assert win.times[p, : real + 1].tobytes() == row[k1[p] : k2 + 1].tobytes()
        assert win.dS[p, :real].tobytes() == noise.dS[p, k1[p] : k2].tobytes()
        assert win.normals[p, :real].tobytes() == noise.normals[p, k1[p] : k2].tobytes()
        # the padded tail repeats t2 and drives nothing
        assert np.all(win.times[p, real:] == 0.75)
        assert np.all(win.dS[p, real:] == 0.0) and np.all(win.normals[p, real:] == 0.0)
    assert width == max(
        int(np.flatnonzero(np.abs(noise.times[p] - 0.75) <= 1e-10)[0]) - k1[p] for p in range(6)
    )
    # each path keeps its events in (t1, t2], re-indexed from its t1, at the same times
    k2 = _index_of(noise, 0.75)
    kept = [(p, j - k1[p], mark) for p, j, mark in noise.events if k1[p] < j <= k2[p]]
    assert win.events == kept and 0 < len(kept) < len(noise.events)
    for p, j, _ in win.events:
        assert 0 < j <= k2[p] - k1[p] and win.times[p, j] == noise.times[p, j + k1[p]]
    # a window of zero length has zero steps and no events
    empty = noise.window(0.5, 0.5)
    assert empty.dS.shape == (6, 0) and empty.normals.shape == (6, 0, model.d)
    assert np.all(empty.times == 0.5) and empty.times.shape == (6, 1) and empty.events == []
    assert batch_flows(model, empty).X.tobytes() == np.broadcast_to(model.x0, (6, 2)).tobytes()


def test_overflow_raises_numeric_error():
    model = make_linear([[50.0]], sigma=[[1.0]])
    noise = sample_batch_noise(model, LEVY, 1.0, 512, 4, seed=0)
    with pytest.raises(NumericError):
        batch_flows(model, noise)
    # a drift of 1 that turns NaN from x = 0.5 on: x grows by dt = 1/16 a step and
    # reaches 0.5 after step 8, so step 9 adds NaN, which the guard names without a
    # RuntimeWarning
    def drift(x, a):
        return np.where(x < 0.5, 1.0, np.nan)

    nan_model = ModelSpec(name="nan_past_half", n=1, d=1, sigma=[[0.0]], rates=no_switching(),
                          drift=drift, drift_jac=lambda x, a: np.zeros((1, 1) + np.shape(x)[1:]),
                          grad_bound=0.0)
    noise = sample_batch_noise(nan_model, LEVY, 1.0, 16, 4, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match="at step 9$"):
            batch_flows(nan_model, noise)


# degenerate noise (sigma with zero rows) and drifts whose data leave rows unmoved
PER_ROW_MODELS = {
    "two_regime_linear": make_two_regime_linear(),
    "kalman": make_kalman(),
    "sin_bounded_degenerate": make_sin_bounded(d=1, sigma=[[0.0], [1.0]]),
    "linear_zero_row": make_linear(
        [[0.0, 0.0], [1.0, -0.5]], shifts=[0.0, 0.3], sigma=[[0.0], [1.0]]
    ),
    "two_regime_sigma_0.7": make_two_regime_linear(sigma=[[0.0], [0.7]], switch_rate=3.0),
    "d2_zero_row": make_linear(
        [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.3, -0.5]],
        sigma=[[0.0, 0.0], [1.0, 0.0], [0.0, 0.7]],
    ),
    # switchsde tails' model: sin_bounded with sigma = I and two regimes
    "sin_bounded_tails": make_sin_bounded(),
    "sin_bounded_swapped": make_sin_bounded(sigma=[[0.0, 0.7], [-1.3, 0.0]], switch_rate=3.0),
    "sigma_zero": make_sin_bounded(sigma=np.zeros((2, 2))),
    "zero_row_inside": make_linear(
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, -0.5]], sigma=[[0.5], [0.0], [1.0]]
    ),
}


def test_batch_matches_per_row_arithmetic():
    # every row of the bundle is the per-point Euler recursion bit for bit:
    # x + b dt, then + sigma dw, then + the perturbation shift, in that order;
    # also where sigma or the affine data leave rows unmoved, on fine, coarsened
    # and padded noise, from starts holding +0.0 and -0.0
    for model in PER_ROW_MODELS.values():
        for kind in ("fine", "coarsened", "padded"):
            if kind == "padded":
                rng = np.random.default_rng(17)
                noise = _padded_bundle([_noise_record(model, m, rng) for m in (16, 9, 13, 16)])
            else:
                noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 16, 8, seed=17)
                noise = noise.coarsen() if kind == "coarsened" else noise
            _check_per_row_arithmetic(model, noise)


@pytest.mark.parametrize("coarsen", [False, True], ids=["fine", "coarsened"])
def test_batch_matches_per_row_arithmetic_across_noise_panels(coarsen):
    # the driver increments are formed NOISE_PANEL steps at a time; with events
    # the step count is above NOISE_PANEL and no multiple of it, so the last
    # panel is cut short, on the fine noise and on its pairwise merge
    model = make_two_regime_linear()
    noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 200, 8, seed=17)
    noise = noise.coarsen() if coarsen else noise
    steps = noise.dS.shape[1]
    assert noise.events and steps > NOISE_PANEL and steps % NOISE_PANEL
    _check_per_row_arithmetic(model, noise)


def _check_per_row_arithmetic(model, noise):
    n, steps = model.n, noise.dS.shape[1]  # uniform steps refined to the event times
    times = np.broadcast_to(noise.times, (noise.n_paths, steps + 1))
    pert = PerturbationSpec(breakpoints=[0.0, 0.3, 1.5], values=[[1.0] * model.d,
                                                                 [-0.6] * model.d], eps=0.2)
    shift = perturbation_shift(model, noise, pert)
    odd = np.arange(n) % 2 == 1
    zero_starts = np.array([np.where(odd, -0.0, 0.0), np.where(odd, 0.0, -0.0), -np.zeros(n)])
    starts = np.array([np.zeros(n), np.linspace(0.4, -0.3, n), np.linspace(-1.2, 0.7, n)])
    runs = [(None, None), (starts, shift), (zero_starts, None),
            (np.concatenate([starts, -zero_starts]), shift)]
    for x0s, sh in runs:
        res = batch_flows(model, noise, x0=None if x0s is None else x0s[:, None], shift=sh,
                          record=True)
        assert res.Q_path.tobytes() == _matmul_Q_path(model, noise, res.K_path).tobytes()
        x0s = model.x0[None] if x0s is None else x0s
        alpha = res.alpha_path
        if model.rates.m0 > 1:
            assert np.any(alpha != model.alpha0)  # the recorded regime paths switch
        X_path = res.X_path.reshape((len(x0s), noise.n_paths, steps + 1, n))
        X = res.X.reshape((len(x0s), noise.n_paths, n))
        for s, x0 in enumerate(x0s):
            for p in range(noise.n_paths):
                x = x0.copy()
                for k in range(steps):
                    dt = times[p, k + 1] - times[p, k]
                    dw = math.sqrt(noise.dS[p, k]) * noise.normals[p, k]
                    x = x + model.drift(x, alpha[p, k]) * dt + model.sigma @ dw
                    if sh is not None:
                        x = x + sh[p, k]
                    assert X_path[s, p, k + 1].tobytes() == x.tobytes()
                assert X[s, p].tobytes() == x.tobytes()


def _matmul_Q_path(model, noise, K_path):
    """Q at every grid point from the recorded K, as the step loop once summed it.

    r = K sigma is one np.matmul over the path rows, and r r^T dS is summed over
    every column of r in order, zero columns included.
    """
    n, d, steps = model.n, model.d, noise.dS.shape[1]
    lead = K_path.shape[:-3]
    K = np.moveaxis(K_path, (-3, -2, -1), (0, 1, 2)).reshape(steps + 1, n, n, -1)
    dS = np.broadcast_to(noise.dS, lead + (steps,)).reshape(-1, steps)
    Q = np.zeros((steps + 1, n, n, dS.shape[0]))
    for k in range(steps):
        r = np.matmul(model.sigma.T, K[k])  # (n, d, paths)
        rr = r[:, None, 0] * r[None, :, 0]
        for c in range(1, d):
            rr += r[:, None, c] * r[None, :, c]
        Q[k + 1] = Q[k] + rr * dS[:, k]
    return np.moveaxis(Q.reshape((steps + 1, n, n) + lead), (0, 1, 2), (-3, -2, -1))


@pytest.mark.parametrize(
    "model, dense",
    [(PER_ROW_MODELS["sin_bounded_tails"], False), (make_two_regime_linear(), False),
     (make_sin_bounded(sigma=[[1.0, 0.5], [0.0, 1.0]]), True)],
    ids=["sin_bounded", "two_regime_linear", "dense_sigma"],
)
def test_step_loop_calls_matmul_only_for_a_dense_sigma(model, dense, monkeypatch):
    # with one nonzero per row and per column of sigma, sigma dw is one product per
    # row and r = K sigma one product per column, so a run that records every flow
    # calls np.matmul nowhere; a dense sigma takes it at every step
    noise = sample_batch_noise(model, LEVY, 1.0, 80, 8, seed=5)
    matmul, calls = np.matmul, []

    def counted(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    res = batch_flows(model, noise, want_J=True, record=True)
    monkeypatch.undo()
    assert noise.dS.shape[1] > NOISE_PANEL
    assert len(calls) == (2 * noise.dS.shape[1] if dense else 0)
    assert res.Q_path.tobytes() == _matmul_Q_path(model, noise, res.K_path).tobytes()


def test_aligned_row_runs_integrate_like_the_bundle():
    # alignment rule: a run of rows that starts at a multiple of SEED_BLOCK
    # integrates bitwise like those rows of the whole bundle; a dense 3x3 sigma
    # sums over the noise columns, and two switching regimes give per-path grids
    rng = np.random.default_rng(3)
    model = make_linear(
        rng.normal(size=(2, 3, 3)),
        shifts=rng.normal(size=(2, 3)),
        sigma=rng.normal(size=(3, 3)),
        rates=constant_rates([[-3.0, 3.0], [3.0, -3.0]]),
    )
    noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 40, 5 * SEED_BLOCK - 17, seed=11)
    assert noise.times.ndim == 2 and noise.events
    kw = dict(want_J=True, want_Q=True, record=True)
    whole = batch_flows(model, noise, **kw)
    runs = [(0, SEED_BLOCK), (SEED_BLOCK, 3 * SEED_BLOCK), (2 * SEED_BLOCK, noise.n_paths)]
    for lo, hi in runs + [(0, noise.n_paths)]:
        part = noise.rows(lo, hi)
        assert part.events == [(p - lo, j, m) for p, j, m in noise.events if lo <= p < hi]
        res = batch_flows(model, part, **kw)
        for name in ("X", "J", "K", "Q", "X_path", "alpha_path", "J_path", "K_path", "Q_path"):
            assert getattr(res, name).tobytes() == getattr(whole, name)[lo:hi].tobytes(), name


COEFFICIENTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3.0])
COMPONENTS = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.3, 7.0, -1e-300])


@settings(max_examples=200, deadline=None)
@given(
    m0=st.integers(1, 3),
    n=st.integers(1, 4),
    lead=st.sampled_from([(), (5,), (2, 5)]),
    data=st.data(),
)
def test_linear_drift_skips_structural_zeros_bitwise(m0, n, lead, data):
    # skipping the columns that are 0 in every regime, and using x itself for a
    # coefficient of 1, gives the dense column-by-column sum bit for bit,
    # signed zeros included; a -0.0 shift keeps its row dense
    def draw(shape, elements):
        size = math.prod(shape)
        return np.array(data.draw(st.lists(elements, min_size=size, max_size=size))).reshape(shape)

    mats = draw((m0, n, n), COEFFICIENTS)
    mats[:, :, data.draw(st.integers(0, n - 1))] = 0.0  # a structural zero column
    shifts = draw((m0, n), st.sampled_from([0.0, -0.0, 0.5, -1.0]))
    x = draw((n,) + lead, COMPONENTS)
    model = make_linear(mats, shifts=shifts)
    a = draw(lead[-1:], st.integers(1, m0)) if lead else data.draw(st.integers(1, m0))
    A, c = mats[np.asarray(a) - 1], shifts[np.asarray(a) - 1]
    want = np.empty(x.shape)
    for r in range(n):
        row = A[..., r, 0] * x[0]
        for col in range(1, n):
            row = row + A[..., r, col] * x[col]
        want[r] = row + c[..., r]
    assert model.drift(x, a).tobytes() == want.tobytes()


def _drift_model(family, n, m0, rng):
    """A model of the builder family with random coefficients; kalman is always 2-d."""
    if family == "zero_drift":
        return make_zero_drift(n=n)
    if family == "kalman":
        return make_kalman()
    if family == "sin_bounded":
        return make_sin_bounded(n=n, amp=rng.uniform(-1, 1, m0), freq=rng.uniform(0.5, 3, m0))
    if family == "two_regime_linear":
        mats, shifts = rng.normal(size=(2, n, n)), rng.normal(size=(2, n))
        return make_two_regime_linear(mats, shifts=shifts, sigma=np.eye(n, 1))
    return make_linear(rng.normal(size=(m0, n, n)), shifts=rng.normal(size=(m0, n)))


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(sorted(MODEL_BUILDERS)),
    n=st.integers(1, 3),
    m0=st.integers(1, 3),
    lead=st.sampled_from([(), (5,), (3, 5)]),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="linear", n=3, m0=2, lead=(3, 5), seed=0)
def test_drift_takes_and_returns_components_first(family, n, m0, lead, seed):
    # the drift of a components-first bundle, (n,) + lead with per-path regimes on
    # the last axis, is the drift at each point: bitwise for n <= 2; within the
    # summation bound for n = 3; and an affine drift is A_i x + c_i within that bound
    rng = np.random.default_rng(seed)
    model = _drift_model(family, n, m0, rng)
    n = model.n
    x = rng.normal(scale=2.0, size=(n,) + lead)
    regimes = rng.integers(1, model.rates.m0 + 1, size=lead[-1:])
    a = regimes if lead else int(regimes)
    b = model.drift(x, a)
    assert b.shape == (n,) + lead
    eps = np.finfo(float).eps
    for idx in np.ndindex(lead):
        point = (slice(None),) + idx
        ai = int(regimes[idx[-1]]) if lead else a
        want = model.drift(x[point], ai)
        if model.affine is not None:
            A, c = model.affine[0][ai - 1], model.affine[1][ai - 1]
            bound = 2 * (n + 1) * eps * (np.abs(A) @ np.abs(x[point]) + np.abs(c))
            assert np.all(np.abs(b[point] - (A @ x[point] + c)) <= bound)
            assert np.all(np.abs(want - (A @ x[point] + c)) <= bound)
        if n <= 2 or model.affine is None:
            assert np.array_equal(b[point], want)
        else:
            assert np.all(np.abs(b[point] - want) <= bound)


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(sorted(MODEL_BUILDERS)),
    n=st.integers(1, 3),
    m0=st.integers(1, 3),
    lead=st.sampled_from([(), (5,), (3, 5)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_drift_jac_takes_components_first(family, n, m0, lead, seed):
    # the Jacobian of a components-first bundle, (n,) + lead with per-path regimes
    # on the last axis, is (n, n) + lead and bitwise the Jacobian at each point
    rng = np.random.default_rng(seed)
    model = _drift_model(family, n, m0, rng)
    n = model.n
    x = rng.normal(scale=2.0, size=(n,) + lead)
    regimes = rng.integers(1, model.rates.m0 + 1, size=lead[-1:])
    a = regimes if lead else int(regimes)
    jac = model.drift_jac(x, a)
    assert jac.shape == (n, n) + lead
    for idx in np.ndindex(lead):
        ai = int(regimes[idx[-1]]) if lead else a
        want = model.drift_jac(x[(slice(None),) + idx], ai)
        assert want.shape == (n, n)
        assert jac[(slice(None), slice(None)) + idx].tobytes() == want.tobytes()
        if model.affine is not None:
            assert np.array_equal(want, model.affine[0][ai - 1])


@pytest.mark.parametrize(
    "model",
    [make_kalman(), make_two_regime_linear(switch_rate=3.0), make_sin_bounded(switch_rate=3.0)],
    ids=lambda m: m.name,
)
def test_one_drift_call_per_step(model):
    # one drift route: without affine data, one components-first drift_and_jac call
    # per step when the model has one, else one drift and one drift_jac call; with
    # affine data no callback is called, the step taking the drift rows from the
    # data; every route gives the same bits
    seen = {"drift": [], "drift_jac": 0, "drift_and_jac": []}

    def drift(x, a):
        seen["drift"].append(np.shape(x))
        return model.drift(x, a)

    def drift_jac(x, a):
        seen["drift_jac"] += 1
        return model.drift_jac(x, a)

    def drift_and_jac(x, a):
        seen["drift_and_jac"].append(np.shape(x))
        return model.drift_and_jac(x, a)

    counted = replace(model, drift=drift, drift_jac=drift_jac)
    assert counted.drift_and_jac is None  # replace drops the joint call of the old drift
    if model.drift_and_jac is not None:
        counted.drift_and_jac = drift_and_jac
    noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 16, 6, seed=3)
    starts = model.x0 + np.array([[[0.0, 0.0]], [[0.5, -0.5]]])
    kw = dict(x0=starts, want_J=True, record=True)
    names = ("X", "J", "K", "Q", "X_path")
    res = batch_flows(counted, noise, **kw)
    steps = noise.dS.shape[1]
    if model.affine is not None:
        assert seen == {"drift": [], "drift_jac": 0, "drift_and_jac": []}
        counted = replace(counted, affine=None)
        _assert_bitwise(res, batch_flows(counted, noise, **kw), names)
    if model.drift_and_jac is not None:
        assert seen == {"drift": [], "drift_jac": 0, "drift_and_jac": [(model.n, 2, 6)] * steps}
        counted.drift_and_jac = None
        _assert_bitwise(res, batch_flows(counted, noise, **kw), names)
    assert seen["drift"] == [(model.n, 2, 6)] * steps
    assert seen["drift_jac"] == steps
    _assert_bitwise(res, batch_flows(model, noise, **kw), names)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(MODEL_BUILDERS)),
    n=st.integers(1, 3),
    m0=st.integers(1, 3),
    lead=st.sampled_from([(), (5,), (3, 5)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_drift_and_jac_is_drift_and_drift_jac_bitwise(family, n, m0, lead, seed):
    # a builder's joint call returns its drift and its Jacobian bit for bit, on a
    # components-first bundle with per-path regimes; a spec whose drift is
    # replaced has none, so it can never return the old drift
    rng = np.random.default_rng(seed)
    model = _drift_model(family, n, m0, rng)
    if family == "sin_bounded":
        assert model.drift_and_jac is not None
    x = rng.normal(scale=2.0, size=(model.n,) + lead)
    regimes = rng.integers(1, model.rates.m0 + 1, size=lead[-1:])
    a = regimes if lead else int(regimes)
    if model.drift_and_jac is not None:
        b, jac = model.drift_and_jac(x, a)
        assert b.tobytes() == model.drift(x, a).tobytes()
        assert jac.tobytes() == model.drift_jac(x, a).tobytes()
        assert pickle.loads(pickle.dumps(model)).drift_and_jac is not None
    assert replace(model, drift=model.drift).drift_and_jac is None


@pytest.mark.parametrize(
    "model",
    [make_kalman(), make_two_regime_linear(switch_rate=3.0), make_sin_bounded(switch_rate=3.0)],
    ids=lambda m: m.name,
)
def test_batch_flows_without_flows_skips_the_jacobian(model):
    # simulate and density read neither K nor Q: want_K=False evolves no flow
    # and never calls drift_jac, and X and the regime keep their bits
    calls = []

    def drift_jac(x, a):
        calls.append(1)
        return model.drift_jac(x, a)

    counted = replace(model, drift_jac=drift_jac)
    noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 16, 6, seed=3)
    bare = batch_flows(counted, noise, want_Q=False, want_K=False, record=True)
    assert not calls
    assert bare.K is bare.K_path is bare.J is bare.Q is None
    _assert_bitwise(bare, batch_flows(model, noise, want_Q=False, record=True), ("X", "X_path"))
    assert np.array_equal(bare.alpha_path, batch_flows(model, noise, record=True).alpha_path)
    # Q needs K, so want_Q keeps K whatever want_K says
    both = batch_flows(model, noise, want_K=False, record=True)
    _assert_bitwise(both, batch_flows(model, noise, record=True), ("X", "K", "Q", "K_path"))


def test_batch_rejects_a_jacobian_without_the_path_axes():
    # a drift_jac that ignores the components-first lead, as the paths-first
    # contract allowed for a constant Jacobian, is refused, not broadcast wrongly
    base = make_sin_bounded(n=2)
    flat = replace(base, drift_jac=lambda x, a: np.zeros((2, 2)))
    noise = sample_batch_noise(base, LEVY_TRUNC, 1.0, 8, 2, seed=1)
    with pytest.raises(SpecError, match="drift_jac must return"):
        batch_flows(flat, noise)


def test_batch_rejects_state_dependent_rates():
    model = make_two_regime_linear(state_dependent=True, rate_direction=[1.0, 0.0])
    # the batched engine takes state-dependent rates with one start per path
    switching = sample_batch_noise(model, LEVY, 1.0, 8, 4, seed=0)
    assert switching.events and batch_flows(model, switching).X.shape == (4, 2)
    # a switch at X_j is defined for one start per path, not for a start bundle
    noise = BatchNoise(np.linspace(0.0, 1.0, 5), np.ones((2, 4)), np.zeros((2, 4, 1)), 2,
                       events=[(0, 2, 0.5)])
    starts = np.zeros((3, 1, 2))
    with pytest.raises(UnsupportedConfigError):
        batch_flows(model, noise, x0=starts)
    assert batch_flows(model, noise).X.shape == (2, 2)


def test_single_regime_noise_keeps_its_draw_order():
    # no events: the shared uniform grid, then dS, then the normals, as drawn by hand
    model = make_kalman()
    for levy in (LEVY, LEVY_TRUNC):
        noise = sample_batch_noise(model, levy, 1.0, 16, 5, seed=9)
        rng = np.random.default_rng(9)
        times = np.linspace(0.0, 1.0, 17)
        dS = sample_increments(levy, np.diff(times), 5, rng)
        z = rng.standard_normal((5, 16, model.d))
        assert noise.times.tobytes() == times.tobytes() and noise.events == []
        assert noise.dS.tobytes() == dS.tobytes() and noise.normals.tobytes() == z.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(sorted(PADDING_MODELS)),
    truncated=st.booleans(),
    n_steps=st.integers(1, 12),
    n_paths=st.integers(1, 3 * SEED_BLOCK),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="two_regime_linear_state", truncated=False, n_steps=8, n_paths=150, seed=0)
def test_seed_blocks_stack_into_one_bundle(family, truncated, n_steps, n_paths, seed):
    # seed blocks drawn as one bundle are each block drawn alone, padded at the
    # end with zero-length steps, byte for byte; a partial last block included
    model = PADDING_MODELS[family]
    levy = LEVY_TRUNC if truncated else LEVY
    sizes, seeds = seed_blocks(seed, 5, 0, n_paths)
    assert sum(sizes) == n_paths and sizes[:-1] == [SEED_BLOCK] * (len(sizes) - 1)
    bundle = sample_batch_noise(model, levy, 1.0, n_steps, sizes, seeds)
    alone = [sample_batch_noise(model, levy, 1.0, n_steps, m, s) for m, s in zip(sizes, seeds)]
    width = max(a.dS.shape[1] for a in alone)
    pad = [width - a.dS.shape[1] for a in alone]
    if all(a.times.ndim == 1 for a in alone):  # no block switched: one shared grid
        assert bundle.times.tobytes() == alone[0].times.tobytes()
    else:
        rows = [np.broadcast_to(a.times, (a.n_paths, a.times.shape[-1])) for a in alone]
        times = np.vstack([np.pad(r, ((0, 0), (0, w)), mode="edge") for r, w in zip(rows, pad)])
        assert bundle.times.tobytes() == times.tobytes()
    dS = np.vstack([np.pad(a.dS, ((0, 0), (0, w))) for a, w in zip(alone, pad)])
    z = np.vstack([np.pad(a.normals, ((0, 0), (0, w), (0, 0))) for a, w in zip(alone, pad)])
    assert bundle.dS.tobytes() == dS.tobytes() and bundle.normals.tobytes() == z.tobytes()
    offsets = np.cumsum([0] + sizes)
    events = [(p + lo, j, mark) for a, lo in zip(alone, offsets) for p, j, mark in a.events]
    assert bundle.events == events and bundle.n_paths == n_paths
    if model.rates.m0 == 1:
        assert bundle.times.ndim == 1
    # each block integrated inside the bundle keeps its final state's bits
    X = batch_flows(model, bundle, want_Q=False).X
    for a, lo in zip(alone, offsets):
        assert batch_flows(model, a, want_Q=False).X.tobytes() == X[lo : lo + a.n_paths].tobytes()


def test_batch_frozen_regime_and_broadcast_start():
    model = make_two_regime_linear()
    noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 8, 6, seed=2)
    frozen = replace(noise, events=[])
    starts = np.stack([model.x0, model.x0 + 0.5])  # (2, n) over the bundle
    res = batch_flows(model, frozen, x0=starts[:, None, :], alpha0=2, want_Q=False, record=True)
    assert np.all(res.alpha_path == 2)
    assert res.X.shape == (2, 6, 2) and res.X_path.shape == (2, 6, noise.dS.shape[1] + 1, 2)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["zero_drift", "two_regime_linear", "two_regime_linear_state"]),
    n_steps=st.integers(1, 16),
    n_paths=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="zero_drift", n_steps=16, n_paths=5, seed=23)
@example(family="two_regime_linear", n_steps=16, n_paths=1, seed=0)  # 19 refined steps
@example(family="two_regime_linear", n_steps=16, n_paths=130, seed=4)  # 2 blocks and 2 rows, padded
def test_coarsen_preserves_driver_increments(family, n_steps, n_paths, seed):
    # on shared and on refined per-path grids, merged step pairs carry the
    # same clock and driver increments, and events move to ceil(j / 2); the
    # merged normals, formed one seed block of rows at a time, keep every bit
    # of the whole-bundle expression
    model = PADDING_MODELS[family]
    noise = sample_batch_noise(model, LEVY, 1.0, n_steps, n_paths, seed=seed)
    steps = noise.dS.shape[1]
    assert steps % 2 == n_steps % 2  # the padding keeps the step parity
    if steps % 2:
        with pytest.raises(DataError):
            noise.coarsen()
        return
    # coarsen() merges into the fine arrays, so everything expected is formed first
    dS, z = noise.dS, noise.normals
    times, d2 = noise.times[..., ::2].tobytes(), dS[:, 0::2] + dS[:, 1::2]
    num = np.sqrt(dS[:, 0::2])[..., None] * z[:, 0::2] + np.sqrt(dS[:, 1::2])[..., None] * z[:, 1::2]
    with np.errstate(invalid="ignore", divide="ignore"):
        whole = np.where(d2[..., None] > 0, num / np.sqrt(d2)[..., None], 0.0)
    fine = np.sqrt(dS)[..., None] * z
    merged = fine[:, 0::2] + fine[:, 1::2]
    events = [(p, (j + 1) // 2, mark) for p, j, mark in noise.events]
    half = noise.coarsen()
    # the merged arrays are views over the first half of the fine ones
    for got, own in ((half.dS, dS), (half.normals, z)):
        assert got.base is not None and got.ctypes.data == own.ctypes.data
        assert got.strides == own.strides
    assert half.dS.shape == (n_paths, steps // 2)
    assert half.times.tobytes() == times
    assert half.dS.tobytes() == d2.tobytes()
    assert half.normals.tobytes() == whole.tobytes()
    np.testing.assert_allclose(
        np.sqrt(half.dS)[..., None] * half.normals, merged, rtol=1e-12, atol=1e-14
    )
    assert half.events == events


def test_coarsen_consumes_its_noise():
    # the fine arrays hold the merged pairs after coarsen(), so the consumed
    # bundle refuses a second coarsen() and a fine run instead of reading them
    model = PADDING_MODELS["zero_drift"]
    noise = sample_batch_noise(model, LEVY, 1.0, 16, 3, seed=5)
    half = noise.coarsen()
    assert noise.dS is None and noise.normals is None
    with pytest.raises(DataError, match="consumed"):
        noise.coarsen()
    with pytest.raises(DataError, match="consumed"):
        batch_flows(model, noise, want_Q=False)
    assert half.coarsen().dS.shape == (3, 4)


def test_coarsen_refuses_a_rows_slice_and_leaves_its_parent():
    # rows() views the parent's arrays, so merging its pairs in place would
    # overwrite the parent's rows; the slice refuses, and a copy coarsens
    model = PADDING_MODELS["zero_drift"]
    noise = sample_batch_noise(model, LEVY, 1.0, 16, 2 * SEED_BLOCK, seed=7)
    before = batch_flows(model, noise, want_J=True, want_Q=True)
    dS, z = noise.dS.copy(), noise.normals.copy()
    part = noise.rows(0, SEED_BLOCK)
    with pytest.raises(DataError, match="read-only"):
        part.coarsen()
    with pytest.raises(DataError, match="read-only"):
        part.rows(0, 8).coarsen()
    assert part.dS is not None and noise.dS is not None
    assert noise.dS.tobytes() == dS.tobytes() and noise.normals.tobytes() == z.tobytes()
    after = batch_flows(model, noise, want_J=True, want_Q=True)
    for name in ("X", "J", "K", "Q"):
        assert getattr(after, name).tobytes() == getattr(before, name).tobytes(), name
    copied = replace(part, dS=part.dS.copy(), normals=part.normals.copy()).coarsen()
    assert copied.dS.shape == (SEED_BLOCK, 8)
    assert noise.dS.tobytes() == dS.tobytes()
    # a coarsened bundle's own rows() slice is read-only too
    with pytest.raises(DataError, match="read-only"):
        noise.coarsen().rows(0, SEED_BLOCK).coarsen()


def test_coarsened_switching_noise_keeps_fine_regimes_at_even_points():
    model = make_two_regime_linear(switch_rate=4.0)
    noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 16, 20, seed=31)
    fine = batch_flows(model, noise, want_Q=False, record=True).alpha_path
    coarse = batch_flows(model, noise.coarsen(), want_Q=False, record=True).alpha_path
    # some switch lands at an odd fine index, between two coarse points
    assert np.any(fine[:, 1::2] != fine[:, 0:-1:2])
    np.testing.assert_array_equal(coarse, fine[:, ::2])


def _noise_record(model, steps, rng):
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.2, steps))])
    dS = rng.exponential(0.1, steps)
    normals = rng.standard_normal((steps, model.d))
    n_events = rng.integers(0, 4) if model.rates.m0 > 1 else 0
    index = np.sort(rng.integers(1, steps + 1, n_events))
    marks = rng.uniform(0.0, model.rates.mark_space(), n_events)
    return times, dS, normals, index, marks


def _padded_bundle(records):
    """Noise records of unequal length as one bundle padded with zero-length steps."""
    width = max(r[1].size for r in records)
    return BatchNoise(
        times=np.stack([np.pad(r[0], (0, width - r[1].size), mode="edge") for r in records]),
        dS=np.stack([np.pad(r[1], (0, width - r[1].size)) for r in records]),
        normals=np.stack([np.pad(r[2], ((0, width - r[1].size), (0, 0))) for r in records]),
        n_paths=len(records),
        events=[(p, j, mark) for p, r in enumerate(records) for j, mark in zip(r[3], r[4])],
    )


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(PADDING_MODELS)),
    steps=st.integers(1, 10),
    extra=st.lists(st.integers(1, 10), min_size=1, max_size=4),
    slot=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_length_padding_is_an_exact_no_op(family, steps, extra, slot, seed):
    # a path integrated alone on its own grid, and padded inside a bundle of
    # longer paths, agrees bit for bit in X, alpha, J, K and Q at its last point
    model = PADDING_MODELS[family]
    rng = np.random.default_rng(seed)
    lengths = [steps + e for e in extra]
    slot = slot % (len(lengths) + 1)
    lengths.insert(slot, steps)
    records = [_noise_record(model, m, rng) for m in lengths]
    starts = model.x0 + rng.normal(scale=0.5, size=(len(lengths), model.n))
    bundle = _padded_bundle(records)
    times1, dS1, normals1, index1, marks1 = records[slot]
    alone = BatchNoise(
        times=times1,
        dS=dS1[None],
        normals=normals1[None],
        n_paths=1,
        events=[(0, j, mark) for j, mark in zip(index1, marks1)],
    )
    kw = dict(want_J=True, want_Q=True, record=True)
    one = batch_flows(model, alone, x0=starts[slot : slot + 1], **kw)
    many = batch_flows(model, bundle, x0=starts, **kw)
    for name in ("X_path", "alpha_path", "J_path", "K_path"):
        a = getattr(one, name)[0, : steps + 1]
        b = getattr(many, name)[slot, : steps + 1]
        assert a.tobytes() == b.tobytes(), name
    assert one.Q[0].tobytes() == many.Q[slot].tobytes()
    # window integrals over grids rescaled to [0, 1]: the path's window is
    # padded inside the bundle's and its integrals keep their bits
    records = [(r[0] / r[0][-1],) + r[1:] for r in records]
    alone = replace(alone, times=records[slot][0])
    bundle = _padded_bundle(records)
    params = NorrisParams(
        window=(0.0, 1.0), regime=model.rates.m0, direction=np.ones(model.n), eps_grid=[0.1]
    )
    fld = scaled_cos_field(model.sigma)
    one = window_integrals(model, alone, params, fld)
    many = window_integrals(model, bundle, params, fld)
    for a, b in zip(one, many):
        assert a[0].tobytes() == b[slot].tobytes()


AFFINE_MODELS = {
    "zero_drift": make_zero_drift(n=2, d=2),
    "zero_drift_3x1": make_zero_drift(n=3, d=1, sigma=[[0.0], [0.0], [1.0]]),
    "linear": make_linear([[0.3, -1.1], [0.7, -0.45]], shifts=[0.3, -0.1]),
    "linear_3x1": make_linear(
        [[-0.2, 1.3, 0.0], [0.1, -0.7, 0.9], [0.0, 0.4, -0.35]], sigma=[0.0, 0.0, 1.0]
    ),
    "kalman": make_kalman(),
    "two_regime_linear": make_two_regime_linear(switch_rate=3.0),
    "two_regime_linear_state": make_two_regime_linear(
        switch_rate=3.0, state_dependent=True, rate_direction=[1.0, 0.0]
    ),
}


def _assert_bitwise(fast, slow, names):
    for name in names:
        a, b = getattr(fast, name), getattr(slow, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(AFFINE_MODELS)),
    grid=st.sampled_from(["shared", "coarsened", "padded", "window"]),
    n_starts=st.integers(0, 3),
    want_J=st.booleans(),
    want_Q=st.booleans(),
    record=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_affine_fast_path_equals_callbacks(family, grid, n_starts, want_J, want_Q, record, seed):
    # the flows evolved once per path (or once per bundle) and broadcast over
    # the starts are bitwise the flows the drift callbacks give per start
    model = AFFINE_MODELS[family]
    slow = replace(model, affine=None)
    rng = np.random.default_rng(seed)
    if grid == "window":
        # a base bundle and its frozen window, which starts from per-path K0
        noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 16, 3, seed)
        win, k1 = replace(noise.window(0.25, 0.75), events=[]), _index_of(noise, 0.25)
        regime = int(rng.integers(1, model.rates.m0 + 1))
        runs = []
        for spec in (model, slow):
            base = batch_flows(spec, noise, want_J=want_J, want_Q=want_Q, record=True)
            start = dict(x0=base.X_path[np.arange(3), k1], K0=base.K_path[np.arange(3), k1])
            frozen = batch_flows(spec, win, alpha0=regime, want_Q=want_Q, record=True, **start)
            runs.append((base, frozen))
        for fast, ref in zip(*runs):
            _assert_bitwise(fast, ref, ("X", "J", "K", "Q", "X_path", "alpha_path", "J_path",
                                        "K_path", "Q_path"))
        return
    n_paths = 4
    if grid == "padded":
        noise = _padded_bundle([_noise_record(model, m, rng) for m in rng.integers(1, 12, n_paths)])
    else:
        records = [_noise_record(model, 16, rng) for _ in range(n_paths)]
        noise = replace(_padded_bundle(records), times=np.linspace(0.0, 1.0, 17))
        if grid == "coarsened":
            noise = noise.coarsen()
    if n_starts == 0:
        x0 = None
    elif model.rates.state_dependent:  # one start per path
        x0 = model.x0 + rng.normal(scale=0.5, size=(n_paths, model.n))
    else:
        x0 = model.x0 + rng.normal(scale=0.5, size=(n_starts, 1, model.n))
    kw = dict(x0=x0, want_J=want_J, want_Q=want_Q, record=record)
    _assert_bitwise(
        batch_flows(model, noise, **kw),
        batch_flows(slow, noise, **kw),
        ("X", "J", "K", "Q", "X_path", "alpha_path", "J_path", "K_path", "Q_path"),
    )


def _einsum_q(model, noise, K_path):
    """Q at every grid point from the recorded inverse flow, by the outer-product einsum."""
    Q = np.zeros(K_path.shape[:-3] + (model.n, model.n))
    Qs = [Q]
    for k in range(noise.dS.shape[1]):
        r = K_path[..., k, :, :] @ model.sigma
        Q = Q + np.einsum("...ad,...bd->...ab", r, r) * noise.dS[:, k, None, None]
        Qs.append(Q)
    return np.stack(Qs, axis=-3)


Q_CASES = {
    "sin_bounded_switching": (
        make_sin_bounded(n=2, sigma=[[1.0, 0.3], [-0.4, 0.8]], switch_rate=4.0), None
    ),
    "sin_bounded_start_axis": (
        make_sin_bounded(n=2, sigma=[[1.0, 0.3], [-0.4, 0.8]]),
        np.array([[[0.5, -1.0]], [[0.0, 0.2]]]),
    ),
    "kalman_shared_flows": (make_kalman(), None),
    "kalman_start_axis": (make_kalman(), np.array([[[0.5, -1.0]], [[0.0, 0.0]], [[-2.0, 0.3]]])),
}


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("case", Q_CASES.values(), ids=Q_CASES.keys())
def test_q_update_is_bitwise_the_einsum(case, record):
    # Q accumulated with the paths innermost, one noise column after another,
    # is bitwise the einsum of r r^T for d <= 2, and exactly symmetric
    model, x0 = case
    noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 32, 6, seed=5)
    if model.rates.m0 > 1:
        assert noise.times.ndim == 2 and noise.events  # per-path grids
    flows = batch_flows(model, noise, x0=x0, want_Q=False, record=True)
    ref = _einsum_q(model, noise, flows.K_path)
    res = batch_flows(model, noise, x0=x0, record=record)
    assert np.array_equal(res.Q, ref[..., -1, :, :])
    assert np.array_equal(res.Q, np.swapaxes(res.Q, -1, -2))
    if record:
        assert np.array_equal(res.Q_path, ref)


def test_q_update_with_three_noise_columns_is_close_to_the_einsum():
    # for d >= 3 the einsum may sum the columns in another order, so bits may
    # differ: by at most 1e-14 sqrt(Q_aa Q_bb) per entry (4.6e-16 seen), the
    # scale an off-diagonal entry is rounded at even where it nearly cancels
    model = make_linear(
        [[-0.2, 1.3, 0.0], [0.1, -0.7, 0.9], [0.0, 0.4, -0.35]],
        sigma=[[1.0, 0.2, -0.5], [0.3, 0.9, 0.1], [-0.6, 0.4, 0.7]],
    )
    noise = sample_batch_noise(model, LEVY_TRUNC, 1.0, 64, 40, seed=9)
    res = batch_flows(model, noise, record=True)
    ref = _einsum_q(model, noise, res.K_path)
    diag = np.diagonal(ref, axis1=-2, axis2=-1)
    scale = np.sqrt(diag[..., :, None] * diag[..., None, :])
    assert np.all(np.abs(res.Q_path - ref) <= 1e-14 * scale)
    assert np.array_equal(res.Q, np.swapaxes(res.Q, -1, -2))
