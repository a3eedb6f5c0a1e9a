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
A network's parameters are one row of P = W*H + 2H + 1 values and a
stack's one (G, P) buffer, so a descent step is one multiply and one
subtract.  One loop, ``_descend``, runs every epoch: it allocates its work
arrays once, reads numpy's functions from local names and enters one
``errstate`` for all its epochs, and writes every array in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class InsufficientHistoryError(Exception):
    """Training or prediction was asked for with too short a series."""


def _logistic(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), computed in place in ``z``.  Below z = -709, exp
    overflows to inf and the result saturates at 0, as it should; the caller
    decides whether that overflow warns."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """``_logistic`` with its overflow ignored."""
    with np.errstate(over="ignore"):
        return _logistic(z)


def _views(theta: np.ndarray, window: int, hidden: int):
    """``w1`` (G, W, H), ``b1`` (G, 1, H), ``w2`` (G, H, 1) and ``b2`` (G, 1, 1)
    as views of a (G, P) buffer that holds one network's parameters a row."""
    g, wh = theta.shape[0], window * hidden
    return (
        theta[:, :wh].reshape(g, window, hidden),
        theta[:, None, wh : wh + hidden],
        theta[:, wh + hidden : -1, None],
        theta[:, None, -1:],
    )


def _descend(theta, window, hidden, xn, yn, epochs=0, lr=0.0):
    """``epochs`` full-batch descent steps of rate ``lr`` for the G networks
    whose parameters are the rows of ``theta`` (G, P), in place, on their
    normalised rows ``xn`` (G, n, W) and ``yn`` (G, n).  Each step follows a
    forward pass and a backward pass for the gradients of each mean loss
    0.5*(out - y)^2; ``epochs = 0`` makes one pass of each and no step.
    Returns the gradients (G, P) and each network's loss at the last pass."""
    g, n = yn.shape
    w1, b1, w2, b2 = _views(theta, window, hidden)
    grad, step = np.empty_like(theta), np.empty_like(theta)
    dw1, db1, dw2, db2 = _views(grad, window, hidden)
    w2_row, xn_t = w2.transpose(0, 2, 1), xn.transpose(0, 2, 1)
    h, dz, tmp = (np.empty((g, n, hidden)) for _ in range(3))
    out, dout, err = np.empty((g, n, 1)), np.empty((g, n, 1)), np.empty((g, n))
    h_t, out_col, err_col, db1_row = h.transpose(0, 2, 1), out[:, :, 0], err[:, :, None], db1[:, 0]
    matmul, multiply, subtract, divide = np.matmul, np.multiply, np.subtract, np.divide
    add_reduce, einsum, logistic = np.add.reduce, np.einsum, _logistic
    with np.errstate(over="ignore"):
        for _ in range(max(epochs, 1)):
            matmul(xn, w1, out=h)
            h += b1
            logistic(h)
            matmul(h, w2, out=out)
            out += b2
            subtract(out_col, yn, out=err)
            divide(err_col, n, out=dout)
            matmul(h_t, dout, out=dw2)
            add_reduce(dout, axis=1, keepdims=True, out=db2)
            multiply(dout, w2_row, out=dz)
            dz *= h
            dz *= subtract(1.0, h, out=tmp)
            matmul(xn_t, dz, out=dw1)
            # einsum sums each column along n in the reduce's order, except
            # at H = 1, where the column is contiguous and the reduce pairwise.
            if hidden > 1:
                einsum("gnh->gh", dz, out=db1_row)
            else:
                add_reduce(dz, axis=1, keepdims=True, out=db1)
            if epochs > 0:
                multiply(lr, grad, out=step)
                theta -= step
    return grad, 0.5 * np.mean(err**2, axis=1)


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
        self.theta = np.zeros(window * hidden + 2 * hidden + 1)
        rng = np.random.default_rng(seed)
        self.w1[:] = rng.uniform(-0.5, 0.5, size=(window, hidden))
        self.w2[:] = rng.uniform(-0.5, 0.5, size=hidden)
        # Normalisation bounds; lo == hi means identity scaling.
        self.lo = self.hi = 0.0

    @classmethod
    def zeros(cls, window: int = 6, hidden: int = 8, learning_rate: float = 0.05):
        model = cls(window, hidden, learning_rate, seed=0)
        model.theta[:] = 0.0
        return model

    def _views(self):
        return _views(self.theta[None], self.window, self.hidden)

    w1 = property(lambda self: self._views()[0][0], doc="input weights (W, H), a view")
    b1 = property(lambda self: self._views()[1][0, 0], doc="hidden biases (H,), a view")
    w2 = property(lambda self: self._views()[2][0, :, 0], doc="output weights (H,), a view")

    @property
    def b2(self) -> float:
        return float(self.theta[-1])

    @b2.setter
    def b2(self, value: float) -> None:
        self.theta[-1] = value

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

    def _outputs(self, xn: np.ndarray) -> np.ndarray:
        """Outputs (n,) for normalised inputs (n, W)."""
        w1, b1, w2, b2 = self._views()
        h = np.matmul(xn[None], w1)
        h += b1
        out = np.matmul(_sigmoid(h), w2)
        out += b2
        return out[0, :, 0]

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
) -> float | list[float]:
    """Full-batch gradient descent on raw (window, target) pairs.

    ``models`` is one model or a list of G models that share window, hidden
    size and learning rate; they train as one stack.  ``x`` (G*n, W) and
    ``y`` (G*n,) hold each model's n rows in turn, and each model normalises
    its own rows with its own bounds.  Returns the loss at the last epoch
    (at the given weights for ``epochs = 0``), or one per model for a list.
    """
    group = [models] if isinstance(models, PredictorModel) else list(models)
    if not group:
        raise ValueError("need at least one model")
    first = group[0]
    spec = (first.window, first.hidden, first.learning_rate)
    if any((m.window, m.hidden, m.learning_rate) != spec for m in group):
        raise ValueError("stacked models must share window, hidden size and learning rate")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = len(group)
    n, rest = divmod(len(x), g)
    if x.ndim != 2 or x.shape[1] != first.window or y.shape != (len(x),) or rest or not n:
        raise ValueError(
            "need x of shape (%d*n, %d) and y of shape (%d*n,), n >= 1" % (g, first.window, g)
        )
    xn = np.stack([m._norm(rows) for m, rows in zip(group, x.reshape(g, -1, first.window))])
    yn = np.stack([m._norm(rows) for m, rows in zip(group, y.reshape(g, -1))])
    theta = np.stack([m.theta for m in group])
    loss = _descend(theta, first.window, first.hidden, xn, yn, epochs, first.learning_rate)[1]
    for m, row in zip(group, theta):
        m.theta = row
    losses = loss.tolist()
    return losses[0] if isinstance(models, PredictorModel) else losses


def train(model: PredictorModel, series, epochs: int = 200) -> float:
    """Fit normalisation bounds on the series and train; returns the final loss."""
    x, y = make_windows(series, model.window)
    model.set_bounds(np.asarray(series, dtype=float))
    return train_on_windows(model, x, y, epochs)


def gradient_check(
    model: PredictorModel, window_values, target: float, step: float = 1e-4
) -> float:
    """Max relative error between the gradients that training runs and
    central differences of the loss, over every parameter of ``model``."""
    xn = model._norm(np.asarray(window_values, dtype=float)[None, None, :])
    yn = model._norm(np.asarray([[target]], dtype=float))
    # One stack of 2P + 1 networks: the model, then for each parameter i a
    # copy with it moved up by ``step`` and a copy with it moved down.
    p = model.theta.size
    g, rows = 2 * p + 1, np.arange(2 * p)
    probes = np.repeat(model.theta[None], g, axis=0)
    probes[rows + 1, rows // 2] += np.tile([step, -step], p)
    grad, loss = _descend(probes, model.window, model.hidden, xn.repeat(g, 0), yn.repeat(g, 0))
    analytic = grad[0]
    up, down = loss[1:].reshape(p, 2).T
    numeric = (up - down) / (2.0 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# -- congestion ---------------------------------------------------------


@dataclass(frozen=True)
class CongestionState:
    """Data-centre congestion verdict: 1 overload, -1 underload, 0 steady; the
    engine adds its (VM, forecast) hogs and each trained group's loss."""

    value: int
    deviation: float
    dev_threshold: float
    time_threshold: float
    hogs: tuple[tuple[int, float], ...] = ()
    losses: dict = field(default_factory=dict)


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
