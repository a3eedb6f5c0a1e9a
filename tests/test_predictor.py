"""Forecaster and congestion-state tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscmc.predictor import (
    CongestionState,
    InsufficientHistoryError,
    PredictorModel,
    _sigmoid,
    detect_congestion,
    gradient_check,
    make_windows,
    train,
    train_on_windows,
)


def test_make_windows_shapes_and_content():
    x, y = make_windows([1, 2, 3, 4, 5], 3)
    assert x.shape == (2, 3)
    assert y.tolist() == [4.0, 5.0]
    assert x[0].tolist() == [1.0, 2.0, 3.0]


def test_make_windows_short_series_raises():
    with pytest.raises(InsufficientHistoryError):
        make_windows([1, 2, 3], 3)


def test_predict_requires_exact_window():
    model = PredictorModel(window=4, seed=0)
    with pytest.raises(InsufficientHistoryError):
        model.predict([1, 2, 3])


def test_zero_model_predicts_bias_only():
    model = PredictorModel.zeros(window=3, hidden=2)
    model.b2 = 5.0
    assert model.predict([10.0, 20.0, 30.0]) == pytest.approx(5.0)


def test_predictions_clamp_at_zero():
    model = PredictorModel.zeros(window=3, hidden=2)
    model.b2 = -4.0
    assert model.predict([1.0, 2.0, 3.0]) == 0.0
    assert model.predict_batch(np.ones((2, 3))).tolist() == [0.0, 0.0]


def test_degenerate_bounds_fall_back_to_identity():
    model = PredictorModel(window=3, seed=1)
    model.set_bounds(np.full(10, 7.0))
    assert model.lo == model.hi == 7.0
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(model._norm(x), x)
    assert model._denorm(0.5) == 0.5


def test_sigmoid_saturates_without_an_overflow_warning():
    # pytest turns a RuntimeWarning into an error.
    z = np.array([-1000.0, 0.0, 1000.0])
    assert _sigmoid(z).tolist() == [0.0, 0.5, 1.0]


def test_training_loss_decreases_monotonically_in_trace_tail():
    """Full-batch descent on a smooth series drives the loss down."""
    rng = np.random.default_rng(5)
    series = 100.0 + 50.0 * np.sin(np.arange(120) / 6.0) + rng.normal(0, 1.0, 120)
    model = PredictorModel(window=6, hidden=8, learning_rate=0.05, seed=3)
    # The first epoch's loss is the loss at the initial weights.
    first = train(_clone(model), series, epochs=1)
    last = train(model, series, epochs=200)
    assert last < first * 0.5
    assert last < 0.05


def test_trained_model_beats_persistence_on_smooth_series():
    """On a predictable series the model must beat the naive last-value guess."""
    series = 100.0 + 50.0 * np.sin(np.arange(160) / 5.0)
    fit, hold = series[:120], series[114:]
    model = PredictorModel(window=6, hidden=8, learning_rate=0.05, seed=3)
    train(model, fit, epochs=3000)
    x, y = make_windows(hold, 6)
    errs = [abs(model.predict(window) - target) for window, target in zip(x, y)]
    persist = [abs(window[-1] - target) for window, target in zip(x, y)]
    assert np.mean(errs) < np.mean(persist)


def test_predictions_stay_in_series_envelope():
    rng = np.random.default_rng(6)
    series = rng.uniform(200.0, 800.0, 100)
    model = PredictorModel(window=6, seed=2)
    train(model, series, epochs=100)
    x, _ = make_windows(series, 6)
    preds = model.predict_batch(x)
    # Sigmoid hidden layer plus bounded output weights keep forecasts near
    # the normalised range; allow slack of half the range.
    lo, hi = series.min(), series.max()
    span = hi - lo
    assert preds.min() >= max(0.0, lo - 0.5 * span)
    assert preds.max() <= hi + 0.5 * span


def test_train_on_windows_matches_train_pipeline():
    series = np.linspace(10.0, 40.0, 30)
    a = PredictorModel(window=4, seed=9)
    b = PredictorModel(window=4, seed=9)
    loss_a = train(a, series, epochs=50)
    x, y = make_windows(series, 4)
    b.set_bounds(series)
    loss_b = train_on_windows(b, x, y, epochs=50)
    assert isinstance(loss_a, float)
    assert loss_a == loss_b
    assert np.array_equal(a.w1, b.w1)


@st.composite
def stacked_problems(draw, groups=st.integers(1, 5), rows=st.integers(1, 12)):
    """G models of one shape with each its own rows and bounds."""
    g = draw(groups)
    n = draw(rows)
    window = draw(st.integers(1, 8))
    hidden = draw(st.integers(1, 8))
    lr = draw(st.sampled_from([0.01, 0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(0.0, 1000.0, (g * n, window))
    y = rng.uniform(0.0, 1000.0, g * n)
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=g, max_size=g))
    # "own": the model's rows; "flat": lo == hi, identity scaling;
    # "wide": a fixed range shared by chance with other models.
    bounds = draw(st.lists(st.sampled_from(["own", "flat", "wide"]), min_size=g, max_size=g))
    models = []
    for i, (seed, kind) in enumerate(zip(seeds, bounds)):
        model = PredictorModel(window, hidden, lr, seed=seed)
        rows = slice(i * n, (i + 1) * n)
        if kind == "own":
            model.set_bounds(np.concatenate([x[rows].ravel(), y[rows]]))
        elif kind == "flat":
            model.lo = model.hi = float(y[rows][0])
        else:
            model.set_bounds(np.array([0.0, 1000.0]))
        models.append(model)
    return models, x, y, draw(st.integers(0, 6))


def _clone(model):
    twin = PredictorModel.zeros(model.window, model.hidden, model.learning_rate)
    twin.w1[:], twin.b1[:], twin.w2[:] = model.w1, model.b1, model.w2
    twin.b2, twin.lo, twin.hi = model.b2, model.lo, model.hi
    return twin


@settings(max_examples=200, deadline=None)
@given(stacked_problems())
def test_stacked_training_equals_training_each_model_alone(problem):
    models, x, y, epochs = problem
    alone = [_clone(m) for m in models]
    n = len(x) // len(models)
    # Identity scaling of raw values saturates the sigmoid.
    with np.errstate(over="ignore"):
        losses = train_on_windows(models, x, y, epochs=epochs)
        singles = [
            train_on_windows(m, x[i * n : (i + 1) * n], y[i * n : (i + 1) * n], epochs=epochs)
            for i, m in enumerate(alone)
        ]
    for loss, single_loss, stacked, single in zip(losses, singles, models, alone):
        assert loss == single_loss
        assert np.array_equal(stacked.w1, single.w1)
        assert np.array_equal(stacked.b1, single.b1)
        assert np.array_equal(stacked.w2, single.w2)
        assert stacked.b2 == single.b2


# The epoch loop as it was before the parameters moved into one buffer per
# stack: fresh temporaries every epoch, four separate descent steps and a
# loss per epoch.  It is the oracle for the buffered loop.


def _reference_sigmoid(z):
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _reference_forward(xn, w1, b1, w2, b2):
    z = xn @ w1
    z += b1[:, None, :]
    h = _reference_sigmoid(z)
    return h, (h @ w2[:, :, None])[:, :, 0] + b2[:, None]


def _reference_gradients(xn, yn, w1, b1, w2, b2):
    h, out = _reference_forward(xn, w1, b1, w2, b2)
    err = out - yn
    dout = err / xn.shape[1]
    dw2 = (h.transpose(0, 2, 1) @ dout[:, :, None])[:, :, 0]
    db2 = dout.sum(axis=1)
    dz = dout[:, :, None] * w2[:, None, :]
    dz *= h
    dz *= 1.0 - h
    dw1 = xn.transpose(0, 2, 1) @ dz
    db1 = dz.sum(axis=1)
    loss = 0.5 * np.mean(err**2, axis=1)
    return dw1, db1, dw2, db2, loss


def reference_train_on_windows(group, x, y, epochs):
    """The old loop on a list of models, which it leaves untouched; returns
    the trained (w1, b1, w2, b2) stacks and the (epochs, G) loss trace."""
    first = group[0]
    g = len(group)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xn = np.stack([m._norm(rows) for m, rows in zip(group, x.reshape(g, -1, first.window))])
    yn = np.stack([m._norm(rows) for m, rows in zip(group, y.reshape(g, -1))])
    w1 = np.stack([m.w1 for m in group])
    b1 = np.stack([m.b1 for m in group])
    w2 = np.stack([m.w2 for m in group])
    b2 = np.array([m.b2 for m in group])
    lr = first.learning_rate
    losses = np.empty((epochs, g))
    for epoch in range(epochs):
        dw1, db1, dw2, db2, losses[epoch] = _reference_gradients(xn, yn, w1, b1, w2, b2)
        w1 -= lr * dw1
        b1 -= lr * db1
        w2 -= lr * dw2
        b2 -= lr * db2
    return w1, b1, w2, b2, losses


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        stacked_problems(),
        # Per-VM models: many small groups in one stack.
        stacked_problems(groups=st.integers(50, 200), rows=st.integers(1, 24)),
    )
)
def test_buffered_training_equals_the_reference_loop(problem):
    models, x, y, epochs = problem
    with np.errstate(over="ignore"):
        w1, b1, w2, b2, trace = reference_train_on_windows(models, x, y, epochs)
        if epochs == 0:
            g, window = len(models), models[0].window
            xn = np.stack([m._norm(r) for m, r in zip(models, x.reshape(g, -1, window))])
            yn = np.stack([m._norm(r) for m, r in zip(models, y.reshape(g, -1))])
            trace = [_reference_gradients(xn, yn, w1, b1, w2, b2)[4]]
        losses = train_on_windows(models, x, y, epochs=epochs)
    assert losses == list(trace[-1])
    assert np.stack([m.w1 for m in models]).tobytes() == w1.tobytes()
    assert np.stack([m.b1 for m in models]).tobytes() == b1.tobytes()
    assert np.stack([m.w2 for m in models]).tobytes() == w2.tobytes()
    assert np.array([m.b2 for m in models]).tobytes() == b2.tobytes()


@pytest.mark.parametrize(
    "hidden, rows", [(8, 100), (8, 200), (8, 256), (1, 256)], ids=["n100", "n200", "n256", "h1"]
)
def test_workload_shaped_training_equals_the_reference_loop(hidden, rows):
    """The shapes the workloads train: two groups of window 6 for 200 epochs,
    each on the windows of a random walk of bandwidth.  At H = 1 the
    hidden-bias gradient takes the reduce, not einsum; the two differ in the
    last bits of some draws only, so each shape is trained on four."""
    for trial in range(4):
        rng = np.random.default_rng([rows, hidden, trial])
        walks = [np.abs(500.0 + np.cumsum(rng.normal(0.0, 40.0, rows + 6))) for _ in range(2)]
        x, y = (np.concatenate(parts) for parts in zip(*(make_windows(w, 6) for w in walks)))
        models = [PredictorModel(6, hidden, 0.05, seed=seed) for seed in (11, 12)]
        for i, model in enumerate(models):
            block = slice(i * rows, (i + 1) * rows)
            model.set_bounds(np.concatenate([x[block].ravel(), y[block]]))
        w1, b1, w2, b2, trace = reference_train_on_windows(models, x, y, 200)
        losses = train_on_windows(models, x, y, epochs=200)
        assert losses == list(trace[-1])
        assert np.stack([m.w1 for m in models]).tobytes() == w1.tobytes()
        assert np.stack([m.b1 for m in models]).tobytes() == b1.tobytes()
        assert np.stack([m.w2 for m in models]).tobytes() == w2.tobytes()
        assert np.array([m.b2 for m in models]).tobytes() == b2.tobytes()


@pytest.mark.parametrize(
    "other",
    [
        PredictorModel(window=5, hidden=3, seed=1),
        PredictorModel(window=4, hidden=2, seed=1),
        PredictorModel(window=4, hidden=3, learning_rate=0.1, seed=1),
    ],
    ids=["window", "hidden", "learning_rate"],
)
def test_stacked_training_rejects_mismatched_models(other):
    model = PredictorModel(window=4, hidden=3, seed=0)
    x = np.ones((4, 4))
    with pytest.raises(ValueError):
        train_on_windows([model, other], x, np.ones(4), epochs=1)


def test_stacked_training_rejects_rows_that_do_not_split_evenly():
    models = [PredictorModel(window=4, seed=i) for i in range(2)]
    with pytest.raises(ValueError):
        train_on_windows(models, np.ones((3, 4)), np.ones(3), epochs=1)


def test_training_rejects_zero_rows_and_an_empty_model_list():
    models = [PredictorModel(window=4, seed=i) for i in range(2)]
    with pytest.raises(ValueError):
        train_on_windows(models, np.ones((0, 4)), np.ones(0), epochs=1)
    with pytest.raises(ValueError):
        train_on_windows(models[0], np.ones((0, 4)), np.ones(0), epochs=0)
    with pytest.raises(ValueError):
        train_on_windows([], np.ones((2, 4)), np.ones(2), epochs=1)


def test_gradient_check_on_shipped_shape():
    rng = np.random.default_rng(7)
    model = PredictorModel(window=6, hidden=8, seed=4)
    model.set_bounds(np.array([0.0, 1000.0]))
    window = rng.uniform(100.0, 900.0, 6)
    assert gradient_check(model, window, 500.0) < 1e-3


def test_gradient_check_across_random_models():
    rng = np.random.default_rng(8)
    for i in range(10):
        w = int(rng.integers(2, 9))
        model = PredictorModel(window=w, hidden=int(rng.integers(2, 10)), seed=i)
        model.set_bounds(np.array([0.0, 100.0]))
        assert gradient_check(model, rng.uniform(0, 100, w), float(rng.uniform(0, 100))) < 1e-3


def test_detect_congestion_trichotomy():
    # Deviation scaled by the interval must exceed the threshold product.
    assert detect_congestion(1200.0, 1000.0, 1.0, 150.0, 1.0).value == 1
    assert detect_congestion(900.0, 1000.0, 1.0, 150.0, 1.0).value == -1
    assert detect_congestion(1100.0, 1000.0, 1.0, 150.0, 1.0).value == 0
    # At the exact threshold the state is steady, not overloaded.
    assert detect_congestion(1150.0, 1000.0, 1.0, 150.0, 1.0).value == 0
    assert detect_congestion(1000.0, 1000.0, 1.0, 0.0, 1.0).value == 0


def test_detect_congestion_scales_with_time():
    state = detect_congestion(1100.0, 1000.0, delta_t=2.0, dev_threshold=150.0, time_threshold=1.0)
    assert state.value == 1  # 100 * 2 > 150 * 1
    assert state.deviation == pytest.approx(100.0)


def test_detect_congestion_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        detect_congestion(1.0, 1.0, delta_t=0.0)


def test_congestion_state_is_frozen():
    state = CongestionState(0, 0.0, 1.0, 1.0)
    with pytest.raises(AttributeError):
        state.value = 1
