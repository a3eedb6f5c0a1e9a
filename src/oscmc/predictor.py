"""Bandwidth and resource-usage forecasting plus congestion-state detection.

The forecaster is a deliberately small three-layer feed-forward network
(window of W recent samples -> H sigmoid units -> one linear output) trained
with plain full-batch gradient descent on squared loss.  Inputs and targets
are min-max normalised with bounds taken from the training data; a
degenerate window (max == min) falls back to identity scaling.

The arithmetic works on stacks of G networks of one shape: weights
``(G, W, H)``, inputs ``(G, n, W)`` and activations ``(G, n, H)``, so one
batched ``matmul`` per product serves every network of an epoch.  Each
group keeps the row-major ``(n, ·)`` layout of a lone network, so numpy
makes the same BLAS call per group and a network trained in a stack ends
bit for bit where it would alone.  A single network is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InsufficientHistoryError(Exception):
    """Training or prediction was asked for with too short a series."""


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), computed in place in ``z``.  Below z = -709, exp
    overflows to inf and the sigmoid saturates at 0, as it should."""
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _forward(xn, w1, b1, w2, b2) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations (G, n, H) and outputs (G, n) of G stacked networks
    on normalised inputs ``xn`` (G, n, W)."""
    z = xn @ w1
    z += b1[:, None, :]
    h = _sigmoid(z)
    return h, (h @ w2[:, :, None])[:, :, 0] + b2[:, None]


def _gradients(xn, yn, w1, b1, w2, b2):
    """Analytic gradients of mean squared loss 0.5*(out - y)^2 and the
    loss itself, per network of the stack; ``yn`` is (G, n)."""
    h, out = _forward(xn, w1, b1, w2, b2)
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


class PredictorModel:
    """One-step-ahead forecaster for a single scalar resource series."""

    def __init__(
        self,
        window: int = 6,
        hidden: int = 8,
        learning_rate: float = 0.05,
        seed: int | None = None,
    ):
        if window < 1 or hidden < 1:
            raise ValueError("window and hidden sizes must be >= 1")
        self.window = window
        self.hidden = hidden
        self.learning_rate = learning_rate
        rng = np.random.default_rng(seed)
        self.w1 = rng.uniform(-0.5, 0.5, size=(window, hidden))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.uniform(-0.5, 0.5, size=hidden)
        self.b2 = 0.0
        # Normalisation bounds; lo == hi means identity scaling.
        self.lo = 0.0
        self.hi = 0.0

    @classmethod
    def zeros(cls, window: int = 6, hidden: int = 8, learning_rate: float = 0.05):
        model = cls(window, hidden, learning_rate, seed=0)
        model.w1[:] = 0.0
        model.w2[:] = 0.0
        return model

    # -- normalisation ---------------------------------------------------

    def set_bounds(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=float)
        self.lo = float(data.min())
        self.hi = float(data.max())

    def _norm(self, x: np.ndarray) -> np.ndarray:
        if self.hi > self.lo:
            return (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo)
        return np.asarray(x, dtype=float)

    def _denorm(self, y: float) -> float:
        if self.hi > self.lo:
            return y * (self.hi - self.lo) + self.lo
        return y

    # -- forward ---------------------------------------------------------

    def _params(self):
        """The weights as a stack of one network (views, but for ``b2``)."""
        return self.w1[None], self.b1[None], self.w2[None], np.array([self.b2])

    def _outputs(self, xn: np.ndarray) -> np.ndarray:
        """Outputs (n,) for normalised inputs (n, W)."""
        return _forward(xn[None], *self._params())[1][0]

    def predict(self, window_values) -> float:
        """Forecast the next sample from the last ``window`` raw samples."""
        x = np.asarray(window_values, dtype=float)
        if x.shape != (self.window,):
            raise InsufficientHistoryError(
                "insufficient history: need exactly %d samples" % self.window
            )
        out = self._outputs(self._norm(x)[None, :])
        return max(0.0, self._denorm(float(out[0])))

    def predict_batch(self, windows: np.ndarray) -> np.ndarray:
        """Vectorised forecast; ``windows`` has shape (n, window)."""
        out = self._outputs(self._norm(np.asarray(windows, dtype=float)))
        raw = out * (self.hi - self.lo) + self.lo if self.hi > self.lo else out
        return np.maximum(raw, 0.0)


def make_windows(series, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding (window -> next value) pairs from a raw series."""
    s = np.asarray(series, dtype=float)
    if s.size < window + 1:
        raise InsufficientHistoryError(
            "insufficient history: need at least %d samples" % (window + 1)
        )
    count = s.size - window
    x = np.stack([s[i : i + window] for i in range(count)])
    y = s[window:]
    return x, y


def train_on_windows(
    models: PredictorModel | list[PredictorModel],
    x: np.ndarray,
    y: np.ndarray,
    epochs: int = 200,
) -> list[float] | list[list[float]]:
    """Full-batch gradient descent on raw (window, target) pairs.

    ``models`` is one model or a list of G models that share window, hidden
    size and learning rate; they train as one stack.  ``x`` (G*n, W) and
    ``y`` (G*n,) hold each model's n rows in turn, and each model normalises
    its own rows with its own bounds.  Returns the loss trace, or one trace
    per model for a list.
    """
    group = [models] if isinstance(models, PredictorModel) else list(models)
    first = group[0]
    spec = (first.window, first.hidden, first.learning_rate)
    if any((m.window, m.hidden, m.learning_rate) != spec for m in group):
        raise ValueError("stacked models must share window, hidden size and learning rate")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = len(group)
    if x.ndim != 2 or x.shape[1] != first.window or len(x) % g or y.shape != (len(x),):
        raise ValueError(
            "need x of shape (%d*n, %d) and y of shape (%d*n,)" % (g, first.window, g)
        )
    xn = np.stack([m._norm(rows) for m, rows in zip(group, x.reshape(g, -1, first.window))])
    yn = np.stack([m._norm(rows) for m, rows in zip(group, y.reshape(g, -1))])
    w1 = np.stack([m.w1 for m in group])
    b1 = np.stack([m.b1 for m in group])
    w2 = np.stack([m.w2 for m in group])
    b2 = np.array([m.b2 for m in group])
    lr = first.learning_rate
    losses = np.empty((epochs, g))
    for epoch in range(epochs):
        dw1, db1, dw2, db2, losses[epoch] = _gradients(xn, yn, w1, b1, w2, b2)
        w1 -= lr * dw1
        b1 -= lr * db1
        w2 -= lr * dw2
        b2 -= lr * db2
    for i, m in enumerate(group):
        m.w1, m.b1, m.w2, m.b2 = w1[i], b1[i], w2[i], float(b2[i])
    traces = losses.T.tolist()
    return traces[0] if isinstance(models, PredictorModel) else traces


def train(model: PredictorModel, series, epochs: int = 200) -> list[float]:
    """Fit normalisation bounds on the series and train; returns loss trace."""
    x, y = make_windows(series, model.window)
    model.set_bounds(np.asarray(series, dtype=float))
    return train_on_windows(model, x, y, epochs)


def gradient_check(
    model: PredictorModel, window_values, target: float, step: float = 1e-4
) -> float:
    """Max relative error between analytic and central-difference gradients."""
    xn = model._norm(np.asarray(window_values, dtype=float)[None, None, :])
    yn = model._norm(np.asarray([[target]], dtype=float))

    dw1, db1, dw2, db2, _ = _gradients(xn, yn, *model._params())
    analytic = np.concatenate([dw1.ravel(), db1.ravel(), dw2.ravel(), db2])

    params = [model.w1, model.b1, model.w2]

    def loss_now() -> float:
        return float(_gradients(xn, yn, *model._params())[4][0])

    numeric = []
    for arr in params:
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_now()
            flat[i] = orig - step
            down = loss_now()
            flat[i] = orig
            numeric.append((up - down) / (2.0 * step))
    orig = model.b2
    model.b2 = orig + step
    up = loss_now()
    model.b2 = orig - step
    down = loss_now()
    model.b2 = orig
    numeric.append((up - down) / (2.0 * step))

    numeric = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# -- congestion ---------------------------------------------------------


@dataclass(frozen=True)
class CongestionState:
    """Data-centre congestion verdict: 1 overload, -1 underload, 0 steady."""

    value: int
    deviation: float
    dev_threshold: float
    time_threshold: float


def detect_congestion(
    observed_bw: float,
    predicted_bw: float,
    delta_t: float = 1.0,
    dev_threshold: float = 0.0,
    time_threshold: float = 1.0,
) -> CongestionState:
    """Trichotomy on the observed-minus-predicted aggregate bandwidth.

    Overload (1) when deviation * delta_t exceeds dev_threshold *
    time_threshold, underload (-1) on any negative deviation, steady (0)
    otherwise.
    """
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    deviation = observed_bw - predicted_bw
    product = deviation * delta_t
    if product > dev_threshold * time_threshold:
        value = 1
    elif product < 0:
        value = -1
    else:
        value = 0
    return CongestionState(value, deviation, dev_threshold, time_threshold)
