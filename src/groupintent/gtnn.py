"""From-scratch graph transformer for coalition-value inference.

Architecture: stacked graph convolutions with symmetric degree normalization,
multi-head self-attention over node tokens, mean pooling, and a signed dense
head producing the per-player parameter vector.  Coalition values come from a
fixed-coupling head; training minimizes mean squared error over all 2**N
coalitions with exact, hand-derived gradients (no autodiff).

Forward/backward on one model must not run concurrently with parameter
updates; read-only evaluation may fan out across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .game import CharacteristicFunction, coalition_matrix
from .metaparse import FeatureGraph

FORMAT_VERSION = 2


class GtnnError(Exception):
    pass


class TrainingDivergedError(GtnnError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int = 16
    hidden_dim: int = 32
    n_gcn_layers: int = 2
    n_attention_heads: int = 4
    key_dim: int = 8
    n_players: int = 3
    seed: int = 0
    # Read-only: the head is always signed (theta = w_out @ pooled + b_out).
    # perfbench still reads `config.head_activation`; as a ClassVar it is
    # neither an init argument nor a field, so saved configs do not carry it.
    head_activation: ClassVar[str] = "identity"

    def __post_init__(self):
        dims = (self.feature_dim, self.hidden_dim, self.n_gcn_layers,
                self.n_attention_heads, self.key_dim, self.n_players)
        if any(d <= 0 for d in dims):
            raise GtnnError("all model dimensions must be positive")
        if self.hidden_dim % self.n_attention_heads != 0:
            raise GtnnError("hidden_dim must be divisible by n_attention_heads")


@dataclass
class Model:
    config: ModelConfig
    gcn_weights: list[np.ndarray]
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    coupling: np.ndarray  # fixed N x N matrix, never trained

    def trainable(self) -> dict[str, np.ndarray]:
        out = {f"gcn_{i}": w for i, w in enumerate(self.gcn_weights)}
        out.update(w_q=self.w_q, w_k=self.w_k, w_v=self.w_v, w_o=self.w_o,
                   w_out=self.w_out, b_out=self.b_out)
        return out


@dataclass(frozen=True)
class TrainSample:
    graph: FeatureGraph
    target: CharacteristicFunction


def _uniform(rng, fan_in, shape):
    scale = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-scale, scale, size=shape)


def init_model(cfg: ModelConfig) -> Model:
    """Seeded uniform init scaled by 1/sqrt(fan-in); the coupling matrix is
    drawn once from the same stream and then frozen."""
    rng = np.random.default_rng(cfg.seed)
    h = cfg.hidden_dim
    qk = cfg.n_attention_heads * cfg.key_dim
    gcn = []
    d_in = cfg.feature_dim
    for _ in range(cfg.n_gcn_layers):
        gcn.append(_uniform(rng, d_in, (d_in, h)))
        d_in = h
    model = Model(
        config=cfg,
        gcn_weights=gcn,
        w_q=_uniform(rng, h, (h, qk)),
        w_k=_uniform(rng, h, (h, qk)),
        w_v=_uniform(rng, h, (h, h)),
        w_o=_uniform(rng, h, (h, h)),
        w_out=_uniform(rng, h, (cfg.n_players, h)),
        b_out=0.1 * np.ones(cfg.n_players),
        coupling=rng.uniform(-1.0, 1.0, size=(cfg.n_players, cfg.n_players)),
    )
    return model


def normalized_adjacency(graph: FeatureGraph) -> np.ndarray:
    """Symmetric degree normalization with self connections:
    c_ij = sqrt(deg_i + 1) * sqrt(deg_j + 1)."""
    a = graph.adjacency() + np.eye(graph.n_nodes)
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def gcn_forward(model: Model, graph: FeatureGraph, cache: dict | None = None):
    """Stacked h -> ReLU(A_hat h W) updates; returns final node embeddings."""
    if graph.feature_dim != model.config.feature_dim:
        raise GtnnError(
            f"graph feature dim {graph.feature_dim} != model feature dim "
            f"{model.config.feature_dim}"
        )
    a_hat = normalized_adjacency(graph)
    h = graph.node_features
    hs = [h]
    zs = []
    for w in model.gcn_weights:
        z = a_hat @ h @ w
        h = np.maximum(z, 0.0)
        zs.append(z)
        hs.append(h)
    if cache is not None:
        cache["a_hat"] = a_hat
        cache["gcn_inputs"] = hs[:-1]
        cache["gcn_preacts"] = zs
    return h


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    n, total = x.shape
    return x.reshape(n, n_heads, total // n_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    n_heads, n, dim = x.shape
    return x.transpose(1, 0, 2).reshape(n, n_heads * dim)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def attention_forward(model: Model, h: np.ndarray, cache: dict | None = None):
    """Multi-head scaled dot-product self-attention over node tokens, heads
    concatenated and linearly mixed.  Every softmax row sums to one."""
    if h.shape[0] == 0:
        raise GtnnError("attention needs at least one node")
    cfg = model.config
    q = _split_heads(h @ model.w_q, cfg.n_attention_heads)
    k = _split_heads(h @ model.w_k, cfg.n_attention_heads)
    v = _split_heads(h @ model.w_v, cfg.n_attention_heads)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(cfg.key_dim)
    attn = _softmax_rows(scores)
    heads = attn @ v
    concat = _merge_heads(heads)
    out = concat @ model.w_o
    if cache is not None:
        cache.update(attn_h=h, attn_q=q, attn_k=k, attn_v=v,
                     attn_weights=attn, attn_concat=concat)
    return out


def forward(model: Model, graph: FeatureGraph, cache: dict | None = None) -> np.ndarray:
    """GCN stack -> node self-attention -> mean pooling -> signed dense head."""
    h = gcn_forward(model, graph, cache)
    refined = attention_forward(model, h, cache)
    pooled = refined.mean(axis=0)
    theta = model.w_out @ pooled + model.b_out
    if cache is not None:
        cache.update(pooled=pooled, n_nodes=graph.n_nodes)
    return theta


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def coalition_values(theta: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """u_hat over all coalitions at once; rows follow bitmask order."""
    n = theta.shape[0]
    m = coalition_matrix(n)
    return (m + _sigmoid(m @ coupling.T)) @ theta


def loss(model: Model, sample: TrainSample, cache: dict | None = None) -> float:
    """Mean squared error between predicted and target values over all
    2**N coalitions."""
    n = model.config.n_players
    if n > 12:
        raise GtnnError("coalition enumeration limited to 12 players")
    if sample.target.n_players != n:
        raise GtnnError("target player count does not match the model")
    theta = forward(model, sample.graph, cache)
    predicted = coalition_values(theta, model.coupling)
    residual = predicted - sample.target.values
    if cache is not None:
        cache.update(residual=residual)
    return float(np.mean(residual**2))


def backward_with_loss(model: Model,
                       sample: TrainSample) -> tuple[dict[str, np.ndarray], float]:
    """Exact gradients of the coalition MSE w.r.t. every trainable weight,
    keyed like `Model.trainable()`, and the loss itself."""
    cache: dict = {}
    value = loss(model, sample, cache)
    cfg = model.config
    n = cfg.n_players
    m = coalition_matrix(n)

    d_pred = 2.0 * cache["residual"] / m.shape[0]
    d_theta = (m + _sigmoid(m @ model.coupling.T)).T @ d_pred
    d_w_out = np.outer(d_theta, cache["pooled"])
    d_pooled = model.w_out.T @ d_theta
    n_nodes = cache["n_nodes"]
    d_refined = np.tile(d_pooled / n_nodes, (n_nodes, 1))

    # Attention backward.
    d_w_o = cache["attn_concat"].T @ d_refined
    d_concat = d_refined @ model.w_o.T
    d_heads = _split_heads(d_concat, cfg.n_attention_heads)
    attn, q, k, v = (cache["attn_weights"], cache["attn_q"], cache["attn_k"],
                     cache["attn_v"])
    d_attn = d_heads @ v.transpose(0, 2, 1)
    d_v = attn.transpose(0, 2, 1) @ d_heads
    d_scores = (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * attn
    d_scores /= np.sqrt(cfg.key_dim)
    d_q = d_scores @ k
    d_k = d_scores.transpose(0, 2, 1) @ q
    h_l = cache["attn_h"]
    d_w_q = h_l.T @ _merge_heads(d_q)
    d_w_k = h_l.T @ _merge_heads(d_k)
    d_w_v = h_l.T @ _merge_heads(d_v)
    d_h = (_merge_heads(d_q) @ model.w_q.T
           + _merge_heads(d_k) @ model.w_k.T
           + _merge_heads(d_v) @ model.w_v.T)

    # GCN backward.
    a_hat = cache["a_hat"]
    d_gcn = [np.zeros_like(w) for w in model.gcn_weights]
    for layer in reversed(range(len(model.gcn_weights))):
        d_z_l = d_h * (cache["gcn_preacts"][layer] > 0.0)
        h_in = cache["gcn_inputs"][layer]
        d_gcn[layer] = (a_hat @ h_in).T @ d_z_l
        d_h = a_hat.T @ d_z_l @ model.gcn_weights[layer].T

    grads = {f"gcn_{i}": g for i, g in enumerate(d_gcn)}
    grads.update(w_q=d_w_q, w_k=d_w_k, w_v=d_w_v, w_o=d_w_o,
                 w_out=d_w_out, b_out=d_theta)
    return grads, value


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    shuffle: bool = True


def train(samples: list[TrainSample], cfg: TrainConfig,
          model: Model | None = None,
          model_cfg: ModelConfig | None = None) -> tuple[Model, list[float]]:
    """Mini-batch adaptive-moment training; returns the model and per-epoch
    mean loss history.  Deterministic under fixed seeds."""
    if not samples:
        raise GtnnError("training needs a nonempty dataset")
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
                g, sample_loss = backward_with_loss(model, sample)
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


def evaluate(model: Model, test: list[TrainSample], eta: float) -> float:
    """Success rate: the fraction of test cases whose coalition MSE falls at
    or below the threshold."""
    if not test:
        raise GtnnError("evaluation needs a nonempty test set")
    if eta <= 0:
        raise GtnnError("threshold must be positive")
    hits = sum(1 for sample in test if loss(model, sample) <= eta)
    return hits / len(test)


def mean_loss(model: Model, samples: list[TrainSample]) -> float:
    return float(np.mean([loss(model, s) for s in samples]))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def model_to_json(model: Model) -> str:
    weights = {}
    for name, value in model.trainable().items():
        weights[name] = {"shape": list(value.shape),
                         "data": [float(x) for x in value.ravel()]}
    cfg = model.config
    return json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
            "weights": weights,
            "coupling": [[float(x) for x in row] for row in model.coupling],
        },
        sort_keys=True,
    )


def model_from_json(text: str) -> Model:
    obj = json.loads(text)
    if obj.get("format_version") != FORMAT_VERSION:
        raise GtnnError(f"unsupported checkpoint version {obj.get('format_version')}")
    cfg = ModelConfig(**obj["config"])
    model = init_model(cfg)

    def load(name):
        spec = obj["weights"][name]
        return np.array(spec["data"]).reshape(spec["shape"])

    model.gcn_weights = [load(f"gcn_{i}") for i in range(cfg.n_gcn_layers)]
    model.w_q, model.w_k = load("w_q"), load("w_k")
    model.w_v, model.w_o = load("w_v"), load("w_o")
    model.w_out, model.b_out = load("w_out"), load("b_out")
    model.coupling = np.array(obj["coupling"], dtype=float)
    return model
