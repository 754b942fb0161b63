"""From-scratch graph transformer for coalition-value inference.

Architecture: stacked graph convolutions with symmetric degree normalization,
multi-head self-attention over node tokens, mean pooling, and a signed dense
head producing the per-player parameter vector.  Coalition values come from a
head whose coupling L is drawn at init and frozen; training minimizes mean
squared error over all 2**N coalitions with exact, hand-derived gradients (no
autodiff).  Training folds the samples of a minibatch that share a graph into
one backward pass at their mean target, which is exact for this loss, and
each graph's normalized adjacency is built once.

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
    c_ij = sqrt(deg_i + 1) * sqrt(deg_j + 1).  Built once per graph, read-only."""
    return graph.normalized_adjacency


def gcn_forward(model: Model, graph: FeatureGraph, cache: dict | None = None):
    """Stacked h -> ReLU(A_hat h W) updates; returns final node embeddings."""
    if graph.feature_dim != model.config.feature_dim:
        raise GtnnError(
            f"graph feature dim {graph.feature_dim} != model feature dim "
            f"{model.config.feature_dim}"
        )
    a_hat = normalized_adjacency(graph)
    h = graph.node_features
    propagated = []
    zs = []
    for w in model.gcn_weights:
        ah = a_hat @ h
        z = ah @ w
        h = np.maximum(z, 0.0)
        propagated.append(ah)
        zs.append(z)
    if cache is not None:
        cache["a_hat"] = a_hat
        cache["gcn_propagated"] = propagated
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


def _design(coupling: np.ndarray) -> np.ndarray:
    """D = m + sigmoid(m C^T) for the coalition matrix m, so u_hat = D theta."""
    m = coalition_matrix(coupling.shape[0])
    return m + _sigmoid(m @ coupling.T)


def coalition_values(theta: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """u_hat over all coalitions at once; rows follow bitmask order."""
    return _design(coupling) @ theta


def _check_target(model: Model, sample: TrainSample) -> None:
    n = model.config.n_players
    if n > 12:
        raise GtnnError("coalition enumeration limited to 12 players")
    if sample.target.n_players != n:
        raise GtnnError("target player count does not match the model")


def loss(model: Model, sample: TrainSample, cache: dict | None = None) -> float:
    """Mean squared error between predicted and target values over all
    2**N coalitions."""
    _check_target(model, sample)
    theta = forward(model, sample.graph, cache)
    design = _design(model.coupling)
    residual = design @ theta - sample.target.values
    if cache is not None:
        cache.update(residual=residual, design=design)
    return float(np.mean(residual**2))


def backward_with_loss(model: Model,
                       sample: TrainSample) -> tuple[dict[str, np.ndarray], float]:
    """Exact gradients of the coalition MSE w.r.t. every trainable weight,
    keyed like `Model.trainable()`, and the loss itself."""
    cache: dict = {}
    value = loss(model, sample, cache)
    cfg = model.config
    design = cache["design"]

    d_pred = 2.0 * cache["residual"] / design.shape[0]
    d_theta = design.T @ d_pred
    d_w_out = np.outer(d_theta, cache["pooled"])
    # Mean pooling hands every node token the same gradient row.
    d_row = (model.w_out.T @ d_theta) / cache["n_nodes"]

    # Attention backward.
    concat = cache["attn_concat"]
    d_w_o = np.outer(concat.sum(axis=0), d_row)
    d_concat = np.broadcast_to(d_row @ model.w_o.T, concat.shape)
    d_heads = _split_heads(d_concat, cfg.n_attention_heads)
    attn, q, k, v = (cache["attn_weights"], cache["attn_q"], cache["attn_k"],
                     cache["attn_v"])
    d_attn = d_heads @ v.transpose(0, 2, 1)
    d_v = attn.transpose(0, 2, 1) @ d_heads
    d_scores = (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * attn
    d_scores /= np.sqrt(cfg.key_dim)
    d_q = d_scores @ k
    d_k = d_scores.transpose(0, 2, 1) @ q
    d_q, d_k, d_v = _merge_heads(d_q), _merge_heads(d_k), _merge_heads(d_v)
    h_l = cache["attn_h"]
    d_w_q, d_w_k, d_w_v = h_l.T @ d_q, h_l.T @ d_k, h_l.T @ d_v
    d_h = d_q @ model.w_q.T + d_k @ model.w_k.T + d_v @ model.w_v.T

    # GCN backward; the input features need no gradient.
    a_hat = cache["a_hat"]
    d_gcn = [None] * len(model.gcn_weights)
    for layer in reversed(range(len(model.gcn_weights))):
        d_z = d_h * (cache["gcn_preacts"][layer] > 0.0)
        d_gcn[layer] = cache["gcn_propagated"][layer].T @ d_z
        if layer:
            d_h = a_hat.T @ d_z @ model.gcn_weights[layer].T

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


def _fold(samples: list[TrainSample], targets: np.ndarray,
          members: list[int]) -> tuple[TrainSample, float]:
    """One sample standing in for `members`, which share a graph: that graph
    at their mean target t_bar, and sum_i mean((t_i - t_bar)**2), the loss
    their spread about t_bar adds to len(members) * loss(t_bar)."""
    first = samples[members[0]]
    if len(members) == 1:
        return first, 0.0
    rows = targets[members]
    mean = rows.mean(axis=0)
    spread = float(((rows - mean) ** 2).mean(axis=1).sum())
    target = CharacteristicFunction(first.target.n_players, mean)
    return TrainSample(graph=first.graph, target=target), spread


def train(samples: list[TrainSample], cfg: TrainConfig,
          model: Model | None = None,
          model_cfg: ModelConfig | None = None) -> tuple[Model, list[float]]:
    """Mini-batch adaptive-moment training; returns the model and per-epoch
    mean loss history.  Deterministic under fixed seeds.

    The k members of a minibatch that share a graph make one backward pass at
    their mean target, scaled by k.  The MSE gradient is linear in the
    residual, so this is exact, and so is the batch loss (see `_fold`).
    """
    if not samples:
        raise GtnnError("training needs a nonempty dataset")
    if model is None:
        model = init_model(model_cfg or ModelConfig())
    for sample in samples:
        _check_target(model, sample)
    # GraphCache hands out one FeatureGraph per string; group_of[i] is the
    # index of the first sample holding sample i's graph.
    first: dict[int, int] = {}
    group_of = [first.setdefault(id(s.graph), i) for i, s in enumerate(samples)]
    targets = np.stack([s.target.values for s in samples])
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
            batch = order[lo : lo + cfg.batch_size].tolist()
            groups: dict[int, list[int]] = {}
            for i in batch:
                groups.setdefault(group_of[i], []).append(i)
            grad_sum: dict[str, np.ndarray] | None = None
            batch_loss = 0.0
            for members in groups.values():
                folded, spread = _fold(samples, targets, members)
                g, folded_loss = backward_with_loss(model, folded)
                k = len(members)
                batch_loss += k * folded_loss + spread
                if grad_sum is None:
                    grad_sum = {key: k * v for key, v in g.items()}
                else:
                    for key in grad_sum:
                        grad_sum[key] += k * g[key]
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


def _sample_losses(model: Model, samples: list[TrainSample]) -> list[float]:
    """`loss` of every sample, with one forward pass per distinct graph."""
    predicted: dict[int, np.ndarray] = {}
    out = []
    for sample in samples:
        _check_target(model, sample)
        key = id(sample.graph)
        if key not in predicted:
            predicted[key] = coalition_values(forward(model, sample.graph),
                                              model.coupling)
        out.append(float(np.mean((predicted[key] - sample.target.values) ** 2)))
    return out


def evaluate(model: Model, test: list[TrainSample], eta: float) -> float:
    """Success rate: the fraction of test cases whose coalition MSE falls at
    or below the threshold."""
    if not test:
        raise GtnnError("evaluation needs a nonempty test set")
    if eta <= 0:
        raise GtnnError("threshold must be positive")
    hits = sum(1 for value in _sample_losses(model, test) if value <= eta)
    return hits / len(test)


def mean_loss(model: Model, samples: list[TrainSample]) -> float:
    return float(np.mean(_sample_losses(model, samples)))


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
