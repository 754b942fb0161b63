import json

import numpy as np
import pytest

from groupintent.game import CharacteristicFunction
from groupintent.grammar import triangle_grammar
from groupintent.gtnn import (
    FORMAT_VERSION,
    GtnnError,
    ModelConfig,
    TrainConfig,
    TrainSample,
    TrainingDivergedError,
    attention_forward,
    coalition_values,
    evaluate,
    forward,
    gcn_forward,
    init_model,
    loss,
    model_from_json,
    model_to_json,
    train,
)
from groupintent.metaparse import FeatureGraph, parse, tree_to_graph
from gtnn_oracle import backward, char_head, gradient_check


SMALL = ModelConfig(feature_dim=6, hidden_dim=8, n_gcn_layers=2,
                    n_attention_heads=2, key_dim=3, n_players=3, seed=7)


def random_graph(rng, n_nodes=5, feature_dim=6):
    feats = rng.normal(size=(n_nodes, feature_dim))
    edges = tuple((i, i + 1) for i in range(n_nodes - 1))
    extra = tuple(
        (int(a), int(b))
        for a, b in [(0, n_nodes - 1)]
        if n_nodes > 2
    )
    return FeatureGraph(node_features=feats, edges=edges + extra)


def random_sample(seed, cfg=SMALL):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n_nodes=5, feature_dim=cfg.feature_dim)
    table = np.abs(rng.normal(size=2**cfg.n_players))
    table[0] = 0.0
    target = CharacteristicFunction(cfg.n_players, table)
    return TrainSample(graph=graph, target=target)


def head_reachable_sample(seed, model, cfg=SMALL):
    """Target generated from a zero-sum reference parameter vector.

    The head's empty-coalition value is half the parameter sum, so a target
    with u(empty) = 0 is exactly fittable only when the reference parameters
    sum to zero, which needs the signed head.
    """
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n_nodes=6, feature_dim=cfg.feature_dim)
    theta_star = rng.normal(size=cfg.n_players)
    theta_star -= theta_star.mean()
    table = coalition_values(theta_star, model.coupling)
    assert abs(table[0]) < 1e-12
    table[0] = 0.0
    target = CharacteristicFunction(cfg.n_players, table)
    return TrainSample(graph=graph, target=target)


# --- init -------------------------------------------------------------------


def test_init_deterministic():
    a, b = init_model(SMALL), init_model(SMALL)
    for (ka, va), (kb, vb) in zip(sorted(a.trainable().items()),
                                  sorted(b.trainable().items())):
        assert ka == kb and np.array_equal(va, vb)
    assert np.array_equal(a.coupling, b.coupling)


def test_init_weight_scale_bounded_by_fan_in():
    model = init_model(SMALL)
    assert np.abs(model.gcn_weights[0]).max() <= 1.0 / np.sqrt(SMALL.feature_dim)
    assert np.abs(model.gcn_weights[1]).max() <= 1.0 / np.sqrt(SMALL.hidden_dim)
    assert np.abs(model.w_out).max() <= 1.0 / np.sqrt(SMALL.hidden_dim)


def test_invalid_config_rejected():
    with pytest.raises(GtnnError):
        ModelConfig(hidden_dim=10, n_attention_heads=4)
    with pytest.raises(GtnnError):
        ModelConfig(hidden_dim=0)


def test_coupling_frozen_by_training():
    model = init_model(SMALL)
    lam_before = model.coupling.copy()
    samples = [random_sample(s) for s in range(4)]
    trained, _ = train(samples, TrainConfig(epochs=3, seed=0), model=model)
    assert np.array_equal(trained.coupling, lam_before)


def test_gradients_have_no_coupling_slot():
    model = init_model(SMALL)
    grads = backward(model, random_sample(0))
    assert "coupling" not in grads
    assert list(grads) == list(model.trainable())


# --- gcn --------------------------------------------------------------------


def test_single_isolated_node_self_term_only():
    cfg = ModelConfig(feature_dim=4, hidden_dim=4, n_gcn_layers=1,
                      n_attention_heads=1, key_dim=4, n_players=2, seed=0)
    model = init_model(cfg)
    graph = FeatureGraph(node_features=np.array([[1.0, -2.0, 0.5, 0.0]]), edges=())
    h = gcn_forward(model, graph)
    expected = np.maximum(graph.node_features @ model.gcn_weights[0], 0.0)
    assert np.allclose(h, expected)


def test_zero_features_stay_zero():
    model = init_model(SMALL)
    graph = FeatureGraph(node_features=np.zeros((4, SMALL.feature_dim)),
                         edges=((0, 1), (1, 2), (2, 3)))
    assert np.allclose(gcn_forward(model, graph), 0.0)


def test_path_graph_normalization_hand_computed():
    # 3-node path, identity weights, scalar features.
    cfg = ModelConfig(feature_dim=1, hidden_dim=1, n_gcn_layers=1,
                      n_attention_heads=1, key_dim=1, n_players=2, seed=0)
    model = init_model(cfg)
    model.gcn_weights[0] = np.array([[1.0]])
    graph = FeatureGraph(node_features=np.array([[1.0], [2.0], [3.0]]),
                         edges=((0, 1), (1, 2)))
    h = gcn_forward(model, graph)
    # Degrees+1: (2, 3, 2).  h0' = 1/2 + 2/sqrt(6); h1' = 1/sqrt(6)+2/3+3/sqrt(6)
    expected = np.array([
        1.0 / 2 + 2.0 / np.sqrt(6),
        1.0 / np.sqrt(6) + 2.0 / 3 + 3.0 / np.sqrt(6),
        2.0 / np.sqrt(6) + 3.0 / 2,
    ])
    assert np.allclose(h.ravel(), expected)


def test_feature_dim_mismatch_rejected():
    model = init_model(SMALL)
    graph = FeatureGraph(node_features=np.zeros((3, 5)), edges=((0, 1),))
    with pytest.raises(GtnnError):
        gcn_forward(model, graph)


# --- attention --------------------------------------------------------------


def test_single_node_attention_is_value_projection():
    model = init_model(SMALL)
    h = np.random.default_rng(0).normal(size=(1, SMALL.hidden_dim))
    out = attention_forward(model, h)
    assert np.allclose(out, (h @ model.w_v) @ model.w_o)


def test_identical_tokens_get_uniform_weights():
    model = init_model(SMALL)
    row = np.random.default_rng(1).normal(size=SMALL.hidden_dim)
    h = np.stack([row, row])
    cache = {}
    attention_forward(model, h, cache)
    assert np.allclose(cache["attn_weights"], 0.5)


def test_attention_rows_sum_to_one():
    model = init_model(SMALL)
    h = np.random.default_rng(2).normal(size=(7, SMALL.hidden_dim))
    cache = {}
    attention_forward(model, h, cache)
    assert np.allclose(cache["attn_weights"].sum(axis=-1), 1.0, atol=1e-12)


def test_attention_matches_dense_oracle():
    # Straight-line reimplementation with explicit per-head loops.
    model = init_model(SMALL)
    rng = np.random.default_rng(3)
    h = rng.normal(size=(4, SMALL.hidden_dim))
    got = attention_forward(model, h)
    heads = []
    dk = SMALL.key_dim
    dv = SMALL.hidden_dim // SMALL.n_attention_heads
    for head in range(SMALL.n_attention_heads):
        q = h @ model.w_q[:, head * dk:(head + 1) * dk]
        k = h @ model.w_k[:, head * dk:(head + 1) * dk]
        v = h @ model.w_v[:, head * dv:(head + 1) * dv]
        scores = q @ k.T / np.sqrt(dk)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        heads.append(weights @ v)
    expected = np.concatenate(heads, axis=1) @ model.w_o
    assert np.allclose(got, expected, atol=1e-10)


# --- forward / head ---------------------------------------------------------


def test_forward_permutation_invariant():
    model = init_model(SMALL)
    rng = np.random.default_rng(4)
    graph = random_graph(rng, n_nodes=6, feature_dim=SMALL.feature_dim)
    theta = forward(model, graph)
    perm = rng.permutation(graph.n_nodes)
    inv = np.argsort(perm)
    permuted = FeatureGraph(
        node_features=graph.node_features[perm],
        edges=tuple((int(inv[i]), int(inv[j])) for i, j in graph.edges),
    )
    assert np.abs(forward(model, permuted) - theta).max() <= 1e-12


def test_zero_output_weights_give_bias():
    model = init_model(SMALL)
    model.w_out = np.zeros_like(model.w_out)
    model.b_out = np.array([0.3, -0.2, 0.0])
    rng = np.random.default_rng(5)
    for seed in range(3):
        graph = random_graph(np.random.default_rng(seed),
                             feature_dim=SMALL.feature_dim)
        assert np.allclose(forward(model, graph), [0.3, -0.2, 0.0])


def test_forward_deterministic():
    model = init_model(SMALL)
    graph = random_graph(np.random.default_rng(6), feature_dim=SMALL.feature_dim)
    assert np.array_equal(forward(model, graph), forward(model, graph))


def test_char_head_empty_coalition_half_sum():
    theta = np.array([0.4, 1.2, -0.6])
    lam = np.random.default_rng(0).normal(size=(3, 3))
    assert char_head(theta, lam, 0) == pytest.approx(0.5 * theta.sum())


def test_char_head_zero_theta():
    lam = np.random.default_rng(1).normal(size=(3, 3))
    for mask in range(8):
        assert char_head(np.zeros(3), lam, mask) == 0.0


def test_char_head_hand_example():
    assert char_head(np.array([1.0, 1.0]), np.zeros((2, 2)), 0b01) == pytest.approx(2.0)


def test_head_modular_at_zero_coupling():
    theta = np.array([0.7, 0.2, 1.5])
    lam = np.zeros((3, 3))
    for i in range(3):
        for mask in range(8):
            if mask >> i & 1:
                continue
            gain = char_head(theta, lam, mask | 1 << i) - char_head(theta, lam, mask)
            assert gain == pytest.approx(theta[i])


# --- loss / backward --------------------------------------------------------


def test_loss_zero_iff_exact_match():
    model = init_model(SMALL)
    sample = random_sample(11)
    theta = forward(model, sample.graph)
    values = coalition_values(theta, model.coupling)
    exact = TrainSample(
        graph=sample.graph,
        target=CharacteristicFunction(3, np.concatenate([[0.0], values[1:]])),
    )
    # Zero only when the table matches everywhere, including mask 0.
    assert loss(model, exact) == pytest.approx((values[0] ** 2) / 8)
    shifted = coalition_values(theta, model.coupling)
    shifted[0] = 0.0
    assert loss(model, TrainSample(
        graph=sample.graph, target=CharacteristicFunction(3, shifted),
    )) == pytest.approx(values[0] ** 2 / 8)


def test_loss_scalar_loop_oracle():
    model = init_model(SMALL)
    sample = random_sample(12)
    theta = forward(model, sample.graph)
    total = 0.0
    for mask in range(8):
        total += (char_head(theta, model.coupling, mask)
                  - sample.target.values[mask]) ** 2
    assert loss(model, sample) == pytest.approx(total / 8, abs=1e-12)


def test_loss_single_player_unit_residuals():
    cfg = ModelConfig(feature_dim=4, hidden_dim=4, n_gcn_layers=1,
                      n_attention_heads=1, key_dim=2, n_players=1, seed=0)
    model = init_model(cfg)
    graph = FeatureGraph(node_features=np.ones((2, 4)), edges=((0, 1),))
    theta = forward(model, graph)
    preds = coalition_values(theta, model.coupling)
    target = CharacteristicFunction(1, np.array([0.0, preds[1] - 1.0]))
    expected = (preds[0] ** 2 + 1.0) / 2
    assert loss(model, TrainSample(graph=graph, target=target)) == pytest.approx(expected)


def test_loss_player_limit():
    cfg = ModelConfig(feature_dim=4, hidden_dim=4, n_gcn_layers=1,
                      n_attention_heads=1, key_dim=2, n_players=13, seed=0)
    model = init_model(cfg)
    graph = FeatureGraph(node_features=np.ones((2, 4)), edges=((0, 1),))
    target = CharacteristicFunction(13, np.zeros(2**13))
    with pytest.raises(GtnnError):
        loss(model, TrainSample(graph=graph, target=target))


def test_gradient_check_random_triples():
    worst = 0.0
    for seed in range(4):
        model = init_model(ModelConfig(feature_dim=6, hidden_dim=8,
                                       n_gcn_layers=2, n_attention_heads=2,
                                       key_dim=3, n_players=3, seed=seed))
        worst = max(worst, gradient_check(model, random_sample(seed)))
    assert worst < 1e-4


def test_zero_loss_zero_gradients():
    # Signed head with a target equal to the model's own output.
    cfg = ModelConfig(feature_dim=6, hidden_dim=8, n_gcn_layers=1,
                      n_attention_heads=2, key_dim=3, n_players=3, seed=2)
    model = init_model(cfg)
    graph = random_graph(np.random.default_rng(0), feature_dim=6)
    theta = forward(model, graph)
    values = coalition_values(theta, model.coupling)
    values[0] = 0.0
    target = CharacteristicFunction(3, values)
    sample = TrainSample(graph=graph, target=target)
    # Residual only at the empty coalition, whose gradient flows through
    # sigma(0) alone; zero it to get exact stationarity.
    values2 = coalition_values(theta, model.coupling)
    target2 = CharacteristicFunction(
        3, np.concatenate([[0.0], values2[1:]])
    )
    grads = backward(model, TrainSample(graph=graph, target=target2))
    # Gradients are driven solely by the empty-coalition residual here; the
    # full-match case needs u(empty) = prediction, which the invariant forbids.
    del grads
    # Construct a genuinely fully-matched case via theta = 0.
    model.w_out = np.zeros_like(model.w_out)
    model.b_out = np.zeros_like(model.b_out)
    zero_target = CharacteristicFunction(3, np.zeros(8))
    grads = backward(model, TrainSample(graph=graph, target=zero_target))
    for name, g in grads.items():
        assert np.allclose(g, 0.0), name


# --- train / evaluate -------------------------------------------------------


def test_overfit_single_sample():
    model_cfg = ModelConfig(n_players=3, seed=3)
    probe = init_model(model_cfg)
    sample = head_reachable_sample(21, probe, cfg=model_cfg)
    model, history = train([sample] * 20,
                           TrainConfig(epochs=200, learning_rate=1e-2, seed=0),
                           model_cfg=model_cfg)
    assert history[-1] < 0.01 * history[0]
    running_min = np.minimum.accumulate(history)
    assert np.all(np.diff(running_min) <= 0)


def test_zero_learning_rate_constant_history():
    samples = [random_sample(s) for s in range(3)]
    _, history = train(samples, TrainConfig(epochs=5, learning_rate=0.0, seed=0),
                       model_cfg=SMALL)
    assert np.ptp(history) == pytest.approx(0.0)


def test_full_batch_order_invariance():
    samples = [random_sample(s) for s in range(6)]
    cfg = TrainConfig(epochs=10, batch_size=6, seed=1, shuffle=True)
    _, hist_a = train(samples, cfg, model_cfg=SMALL)
    _, hist_b = train(list(reversed(samples)), cfg, model_cfg=SMALL)
    assert hist_a[-1] == pytest.approx(hist_b[-1], abs=1e-6)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_detected():
    # Adam steps are bounded by the learning rate, so overflow needs a rate
    # large enough that squared activations leave the float range.
    samples = [random_sample(s) for s in range(2)]
    with pytest.raises(TrainingDivergedError):
        train(samples, TrainConfig(epochs=10, learning_rate=1e200, seed=0),
              model_cfg=SMALL)


def test_empty_dataset_rejected():
    with pytest.raises(GtnnError):
        train([], TrainConfig())


def test_evaluate_thresholds():
    model = init_model(SMALL)
    samples = [random_sample(s) for s in range(6)]
    losses = [loss(model, s) for s in samples]
    eta = float(np.median(losses))
    kappa = evaluate(model, samples, eta)
    assert kappa == pytest.approx(np.mean([l <= eta for l in losses]))
    assert evaluate(model, samples, 1e9) == 1.0
    assert evaluate(model, samples, 1e-12) == 0.0


def test_evaluate_empty_or_bad_eta():
    model = init_model(SMALL)
    with pytest.raises(GtnnError):
        evaluate(model, [], 0.1)
    with pytest.raises(GtnnError):
        evaluate(model, [random_sample(0)], 0.0)


# --- serialization ----------------------------------------------------------


def test_checkpoint_round_trip():
    model = init_model(SMALL)
    samples = [random_sample(s) for s in range(3)]
    model, _ = train(samples, TrainConfig(epochs=2, seed=0), model=model)
    back = model_from_json(model_to_json(model))
    sample = random_sample(9)
    assert loss(back, sample) == pytest.approx(loss(model, sample), abs=1e-15)
    assert np.array_equal(back.coupling, model.coupling)


def test_checkpoint_version_checked():
    model = init_model(SMALL)
    current = model_to_json(model)
    tag = f'"format_version": {FORMAT_VERSION}'
    assert tag in current
    future = current.replace(tag, '"format_version": 99')
    # Version 1 configs carried the removed head_activation option.
    v1 = json.loads(current)
    v1["format_version"] = 1
    v1["config"]["head_activation"] = "relu"
    for text in (future, json.dumps(v1)):
        with pytest.raises(GtnnError):
            model_from_json(text)


def test_real_parse_tree_pipeline():
    g = triangle_grammar()
    graph = tree_to_graph(parse(list("ddbbcc"), g), feature_dim=16)
    cfg = ModelConfig(n_players=3, seed=0)
    model = init_model(cfg)
    theta = forward(model, graph)
    assert theta.shape == (3,)
    assert np.all(np.isfinite(theta))
