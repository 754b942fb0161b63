"""Gradient and head oracles for the graph-transformer tests, kept apart from
`groupintent.gtnn` so that only the tests carry them."""

from __future__ import annotations

import numpy as np

from groupintent.gtnn import Model, TrainSample, backward_with_loss, loss


def char_head(theta: np.ndarray, coupling: np.ndarray, mask: int) -> float:
    """u_hat(S) = theta^T (s + sigmoid(coupling @ s)) for the 0/1 indicator s."""
    n = theta.shape[0]
    s = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
    return float(theta @ (s + 1.0 / (1.0 + np.exp(-(coupling @ s)))))


def backward(model: Model, sample: TrainSample) -> dict[str, np.ndarray]:
    """Exact gradients of the coalition MSE w.r.t. every trainable weight."""
    grads, _ = backward_with_loss(model, sample)
    return grads


def gradient_check(model: Model, sample: TrainSample, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per component is |fd - g| / max(|fd| + |g|, 1e-6); the
    floor keeps float cancellation noise on near-zero components from
    registering as disagreement.
    """
    analytic = backward(model, sample)
    params = model.trainable()
    worst = 0.0
    for name, w in params.items():
        flat = w.reshape(-1)
        gflat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss(model, sample)
            flat[i] = orig - step
            down = loss(model, sample)
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            rel = abs(fd - gflat[i]) / max(abs(fd) + abs(gflat[i]), 1e-6)
            worst = max(worst, rel)
    return worst
