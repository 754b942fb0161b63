"""Gradient, head and training oracles for the graph-transformer tests, kept
apart from `groupintent.gtnn` so that only the tests carry them."""

from __future__ import annotations

import numpy as np

from groupintent.gtnn import (
    Model,
    ModelConfig,
    TrainConfig,
    TrainSample,
    TrainingDivergedError,
    backward_with_loss,
    init_model,
    loss,
)


def char_head(theta: np.ndarray, coupling: np.ndarray, mask: int) -> float:
    """u_hat(S) = theta^T (s + sigmoid(coupling @ s)) for the 0/1 indicator s."""
    n = theta.shape[0]
    s = np.array([(mask >> i) & 1 for i in range(n)], dtype=float)
    return float(theta @ (s + 1.0 / (1.0 + np.exp(-(coupling @ s)))))


def backward(model: Model, sample: TrainSample) -> dict[str, np.ndarray]:
    """Exact gradients of the coalition MSE w.r.t. every trainable weight."""
    grads, _ = backward_with_loss(model, [sample])
    return grads


def gradient_check(model: Model, samples: TrainSample | list[TrainSample],
                   step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    of the mean loss of one sample or of a minibatch, the finite differences
    taken on the per-sample `loss` with no folding or stacking.

    Relative error per component is |fd - g| / max(|fd| + |g|, 1e-6); the
    floor keeps float cancellation noise on near-zero components from
    registering as disagreement.
    """
    batch = samples if isinstance(samples, list) else [samples]
    analytic, _ = backward_with_loss(model, batch)

    def batch_loss():
        return float(np.mean([loss(model, s) for s in batch]))

    params = model.trainable()
    worst = 0.0
    for name, w in params.items():
        flat = w.reshape(-1)
        gflat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = batch_loss()
            flat[i] = orig - step
            down = batch_loss()
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            rel = abs(fd - gflat[i]) / max(abs(fd) + abs(gflat[i]), 1e-6)
            worst = max(worst, rel)
    return worst


def train_per_sample(samples: list[TrainSample], cfg: TrainConfig,
                     model: Model | None = None,
                     model_cfg: ModelConfig | None = None
                     ) -> tuple[Model, list[float]]:
    """`gtnn.train` without folding: one backward pass per sample, the
    minibatch gradient and loss summed sample by sample.  Same shuffle, batch
    boundaries and Adam update, so the two agree up to rounding."""
    if model is None:
        model = init_model(model_cfg or ModelConfig())
    rng = np.random.default_rng(cfg.seed)
    params = model.trainable()
    moment1 = {k: np.zeros_like(v) for k, v in params.items()}
    moment2 = {k: np.zeros_like(v) for k, v in params.items()}
    history: list[float] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = np.arange(len(samples))
        if cfg.shuffle:
            rng.shuffle(order)
        epoch_losses = []
        for lo in range(0, len(order), cfg.batch_size):
            batch = [samples[i] for i in order[lo : lo + cfg.batch_size]]
            grad_sum: dict[str, np.ndarray] | None = None
            batch_loss = 0.0
            for sample in batch:
                g, sample_loss = backward_with_loss(model, [sample])
                batch_loss += sample_loss
                if grad_sum is None:
                    grad_sum = g
                else:
                    for key in grad_sum:
                        grad_sum[key] = grad_sum[key] + g[key]
            batch_loss /= len(batch)
            epoch_losses.append(batch_loss)
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(
                    f"loss became non-finite at epoch {epoch}, step {step}"
                )
            if cfg.learning_rate == 0.0:
                continue
            step += 1
            params = model.trainable()
            for key in params:
                g = grad_sum[key] / len(batch)
                moment1[key] = cfg.beta1 * moment1[key] + (1 - cfg.beta1) * g
                moment2[key] = cfg.beta2 * moment2[key] + (1 - cfg.beta2) * g**2
                m_hat = moment1[key] / (1 - cfg.beta1**step)
                v_hat = moment2[key] / (1 - cfg.beta2**step)
                params[key] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        history.append(float(np.mean(epoch_losses)))
    return model, history
