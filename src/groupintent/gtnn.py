"""From-scratch graph transformer for coalition-value inference.

Architecture: stacked graph convolutions with symmetric degree normalization,
multi-head self-attention over node tokens, mean pooling, and a signed dense
head producing the per-player parameter vector.  Coalition values come from a
head whose coupling L is drawn at init and frozen; training minimizes mean
squared error over all 2**N coalitions with exact, hand-derived gradients (no
autodiff).  Each minibatch is one forward and one backward pass: its samples
are folded by graph into the distinct graphs, which are zero-padded to the
largest node count and stacked, with a key mask for attention and a mean pool
over real nodes only.  Folding and padding are exact for this loss.  Each
graph's normalized adjacency is built once; one graph's forward pass is the
unpadded, unmasked case.

Forward/backward on one model must not run concurrently with parameter
updates; read-only evaluation may fan out across workers.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
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


@dataclass(frozen=True)
class GraphStack:
    """G graphs zero-padded to the largest node count n among them.

    Padded feature rows and padded adjacency rows and columns are zero, so
    padded nodes stay zero through the GCN.  `mask` marks the real nodes; it
    is None when no graph is padded.
    """

    node_features: np.ndarray         # (G, n, feature_dim)
    normalized_adjacency: np.ndarray  # (G, n, n)
    n_nodes: np.ndarray               # (G, 1) real node counts
    mask: np.ndarray | None           # (G, n) True on real nodes

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[-1]


def stack_graphs(graphs: Sequence[FeatureGraph]) -> GraphStack:
    """Pad `graphs` into one stack; a zero-node graph has nothing to attend."""
    counts = np.array([g.n_nodes for g in graphs])
    if counts.min() == 0:
        raise GtnnError("attention needs at least one node")
    if len({g.feature_dim for g in graphs}) != 1:
        raise GtnnError("stacked graphs must share one feature dim")
    n = int(counts.max())
    feats = np.zeros((len(graphs), n, graphs[0].feature_dim))
    a_hat = np.zeros((len(graphs), n, n))
    for row, (graph, m) in enumerate(zip(graphs, counts)):
        feats[row, :m] = graph.node_features
        a_hat[row, :m, :m] = graph.normalized_adjacency
    mask = None if counts.min() == n else np.arange(n) < counts[:, None]
    return GraphStack(feats, a_hat, counts[:, None], mask)


def _rows(x: np.ndarray) -> np.ndarray:
    """Every token of a (..., n, d) array as one (tokens, d) matrix."""
    return x.reshape(-1, x.shape[-1])


def gcn_forward(model: Model, graph: FeatureGraph | GraphStack,
                cache: dict | None = None):
    """Stacked h -> ReLU(A_hat h W) updates; returns final node embeddings."""
    if graph.feature_dim != model.config.feature_dim:
        raise GtnnError(
            f"graph feature dim {graph.feature_dim} != model feature dim "
            f"{model.config.feature_dim}"
        )
    a_hat = graph.normalized_adjacency
    h = graph.node_features
    inputs = []
    for w in model.gcn_weights:
        inputs.append(h)
        h = np.maximum((a_hat @ h) @ w, 0.0)
    if cache is not None:
        cache["a_hat"] = a_hat
        cache["gcn_inputs"] = inputs
    return h


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., n, heads * d) -> (..., heads, n, d)."""
    return x.reshape(*x.shape[:-1], n_heads, -1).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, n, d) -> (..., n, heads * d)."""
    x = x.swapaxes(-2, -3)
    return x.reshape(*x.shape[:-2], -1)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place: a stack's (G, heads, n, n)
    scores are its largest array, so no copy of them is made."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def attention_forward(model: Model, h: np.ndarray, cache: dict | None = None,
                      mask: np.ndarray | None = None):
    """Multi-head scaled dot-product self-attention over node tokens, heads
    concatenated and linearly mixed.  Every softmax row sums to one.

    With a (G, n) `mask` of real nodes, padded keys score -inf, so their
    weight is exactly 0, and padded queries get all-zero weights, so their
    output rows are zero."""
    if h.shape[-2] == 0:
        raise GtnnError("attention needs at least one node")
    cfg = model.config
    q = _split_heads(h @ model.w_q, cfg.n_attention_heads)
    k = _split_heads(h @ model.w_k, cfg.n_attention_heads)
    v = _split_heads(h @ model.w_v, cfg.n_attention_heads)
    scores = q @ k.swapaxes(-1, -2)
    scores /= np.sqrt(cfg.key_dim)
    if mask is not None:
        scores += np.where(mask, 0.0, -np.inf)[:, None, None, :]
    attn = _softmax_rows(scores)
    if mask is not None:
        attn *= mask[:, None, :, None]
    heads = attn @ v
    concat = _merge_heads(heads)
    out = concat @ model.w_o
    if cache is not None:
        cache.update(attn_h=h, attn_q=q, attn_k=k, attn_v=v,
                     attn_weights=attn, attn_concat_sum=concat.sum(axis=-2))
    return out


def forward(model: Model, graph: FeatureGraph | GraphStack,
            cache: dict | None = None) -> np.ndarray:
    """GCN stack -> node self-attention -> mean pooling -> signed dense head.

    One graph gives theta of shape (n_players,); a G-graph stack gives
    (G, n_players), its mean pool summing real nodes only."""
    if isinstance(graph, GraphStack):
        mask, counts = graph.mask, graph.n_nodes
    else:
        mask, counts = None, graph.n_nodes
    h = gcn_forward(model, graph, cache)
    refined = attention_forward(model, h, cache, mask)
    pooled = refined.sum(axis=-2) / counts
    theta = pooled @ model.w_out.T + model.b_out
    if cache is not None:
        cache.update(pooled=pooled, n_nodes=counts)
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


def loss(model: Model, sample: TrainSample) -> float:
    """Mean squared error between predicted and target values over all
    2**N coalitions."""
    _check_target(model, sample)
    residual = coalition_values(forward(model, sample.graph),
                                model.coupling) - sample.target.values
    return float(np.mean(residual**2))


def backward_with_loss(model: Model, samples: Sequence[TrainSample]
                       ) -> tuple[dict[str, np.ndarray], float]:
    """Exact gradients of the minibatch mean coalition MSE w.r.t. every
    trainable weight, keyed like `Model.trainable()`, and that loss.

    The samples are folded by graph identity into their G distinct graphs,
    which make one forward and one backward pass as a padded stack
    (`stack_graphs`).  The head's residual stays per sample, so the k
    members of graph g send theta_g k times the gradient at their mean
    target t_bar, and the loss is exactly the per-sample mean,
    sum_g (k * l(t_bar) + sum_i mean((t_i - t_bar)**2)) / len(samples).
    """
    if not samples:
        raise GtnnError("a minibatch needs at least one sample")
    for sample in samples:
        _check_target(model, sample)
    # GraphCache hands out one FeatureGraph per string; rows[i] is the stack
    # row of sample i's graph, in order of first appearance.
    first: dict[int, int] = {}
    rows = [first.setdefault(id(s.graph), len(first)) for s in samples]
    graphs = list({id(s.graph): s.graph for s in samples}.values())
    cfg = model.config
    cache: dict = {}
    theta = forward(model, stack_graphs(graphs), cache)
    design = _design(model.coupling)
    targets = np.stack([sample.target.values for sample in samples])
    residual = (theta @ design.T)[rows] - targets
    value = float(np.mean(residual**2))

    # Each sample's residual flows back to its graph's row of theta.
    members = np.arange(len(graphs))[:, None] == np.array(rows)
    d_theta = (members @ residual) @ design * (2.0 / residual.size)
    d_w_out = d_theta.T @ cache["pooled"]
    # Mean pooling hands every real node token of a graph the same row.
    d_row = (d_theta @ model.w_out) / cache["n_nodes"]

    # Attention backward.  Every query row of a graph gets the same upstream
    # gradient d_heads, so d_attn[i, j] = c_j and d_scores[i, j] =
    # attn[i, j] (c_j - attn_c_i) / sqrt(dk), attn_c = attn @ c.  d_q
    # and d_k are expanded over that product, so no (G, heads, n, n) array
    # beyond attn is made.  Padded queries and keys have zero weight, so no
    # gradient reaches padded tokens.
    attn, q, k, v = (cache.pop("attn_weights"), cache.pop("attn_q"),
                     cache.pop("attn_k"), cache.pop("attn_v"))
    d_w_o = cache["attn_concat_sum"].T @ d_row
    d_heads = _split_heads((d_row @ model.w_o.T)[:, None, :], cfg.n_attention_heads)
    c = (d_heads @ v.swapaxes(-1, -2)).swapaxes(-1, -2)
    attn_c = attn @ c
    attn_t = attn.swapaxes(-1, -2)
    scale = 1.0 / np.sqrt(cfg.key_dim)
    d_q = _merge_heads((attn @ (c * k) - attn_c * (attn @ k)) * scale)
    d_k = _merge_heads((c * (attn_t @ q) - attn_t @ (attn_c * q)) * scale)
    d_v = _merge_heads(attn.sum(axis=-2)[..., None] * d_heads)
    del attn, attn_t, q, k, v  # the largest arrays, no longer read
    h_l = _rows(cache["attn_h"])
    d_w_q, d_w_k, d_w_v = (h_l.T @ _rows(d_q), h_l.T @ _rows(d_k),
                           h_l.T @ _rows(d_v))
    d_h = d_q @ model.w_q.T
    d_h += d_k @ model.w_k.T
    d_h += d_v @ model.w_v.T

    # GCN backward; a layer's ReLU output is the next layer's input, and the
    # input features need no gradient.
    a_hat_t = cache["a_hat"].swapaxes(-1, -2)
    inputs = cache["gcn_inputs"]
    outputs = inputs[1:] + [cache["attn_h"]]
    d_gcn = [None] * len(model.gcn_weights)
    for layer in reversed(range(len(model.gcn_weights))):
        d_ah = a_hat_t @ (d_h * (outputs[layer] > 0.0))
        d_gcn[layer] = _rows(inputs[layer]).T @ _rows(d_ah)
        if layer:
            d_h = d_ah @ model.gcn_weights[layer].T

    grads = {f"gcn_{i}": g for i, g in enumerate(d_gcn)}
    grads.update(w_q=d_w_q, w_k=d_w_k, w_v=d_w_v, w_o=d_w_o,
                 w_out=d_w_out, b_out=d_theta.sum(axis=0))
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

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise GtnnError("epochs and batch_size must be at least 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise GtnnError("learning_rate must be finite and nonnegative")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise GtnnError("beta1 and beta2 must lie in [0, 1)")
        if not self.eps > 0:
            raise GtnnError("eps must be positive")


def train(samples: list[TrainSample], cfg: TrainConfig,
          model: Model | None = None,
          model_cfg: ModelConfig | None = None) -> tuple[Model, list[float]]:
    """Mini-batch adaptive-moment training; returns the model and per-epoch
    mean loss history.  Deterministic under fixed seeds.  Each minibatch is
    one `backward_with_loss` call."""
    if not samples:
        raise GtnnError("training needs a nonempty dataset")
    if model is None:
        model = init_model(model_cfg or ModelConfig())
    for sample in samples:
        _check_target(model, sample)
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
            grads, batch_loss = backward_with_loss(model, batch)
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
                g = grads[key]
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
