import json
from dataclasses import replace

import numpy as np
import pytest

from groupintent import game, gtnn
from groupintent.grammar import classify, GrammarClass, triangle_assignment, validate
from groupintent.harness import (
    ConfigError,
    DatasetRecord,
    GraphCache,
    IntentClassSpec,
    append_sweep_csv,
    apply_env_overrides,
    build_intent,
    config_from_dict,
    config_to_dict,
    constant_baseline_mse,
    default_config,
    end_to_end_forward,
    generate_dataset,
    load_config,
    paper_scale,
    read_records,
    records_to_samples,
    reference_grammar,
    run_sweep,
    scaled_table,
    sensors_from_traces,
    write_records,
    SweepPoint,
)
from groupintent.metaparse import merge_tracks, parse


def small_config(**overrides):
    cfg = default_config()
    base = dict(train_per_class=6, test_per_class=2)
    base.update(overrides)
    return replace(cfg, **base)


# --- config -----------------------------------------------------------------


def test_default_config_round_trips_through_dict():
    cfg = default_config()
    back = config_from_dict(config_to_dict(cfg))
    assert back.n_players == cfg.n_players
    assert len(back.classes) == 10
    assert back.q_grid == cfg.q_grid
    assert back.model == cfg.model
    assert back.train == cfg.train


def test_config_file_load(tmp_path):
    cfg = default_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    loaded = load_config(str(path), environ={})
    assert loaded.eta == cfg.eta


def test_env_overrides_scalar_and_nested():
    obj = config_to_dict(default_config())
    out = apply_env_overrides(
        obj,
        environ={
            "GROUPINTENT_ETA": "0.1",
            "GROUPINTENT_TRAIN__EPOCHS": "7",
            "UNRELATED": "x",
        },
    )
    cfg = config_from_dict(out)
    assert cfg.eta == 0.1
    assert cfg.train.epochs == 7


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"q_grid": [1.5]})
    with pytest.raises(ConfigError):
        config_from_dict({"train_per_class": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"allocation_method": "dictator"})
    # The head is always signed; configs written with the old option fail.
    with pytest.raises(ConfigError):
        config_from_dict({"model": {"head_activation": "relu"}})
    with pytest.raises(ConfigError):
        load_config(environ={"GROUPINTENT_MODEL__HEAD_ACTIVATION": "relu"})


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.json", environ={})


def test_paper_scale_sizes():
    cfg = paper_scale(default_config())
    assert cfg.train_per_class == 5000
    assert cfg.test_per_class == 500


# --- build_intent -----------------------------------------------------------


def test_build_intent_composes_game_and_grammar():
    spec = IntentClassSpec(
        class_id="probe",
        sensors=sensors_from_traces((2.0, 3.0, 5.0)),
        assignment=triangle_assignment(),
    )
    intent = build_intent(spec, "nucleolus")
    assert np.allclose(intent.allocation, [2, 3, 5], atol=1e-8)
    denom = 2 * 10.0
    assert intent.grammar.probs["I"] == pytest.approx(2 / denom)
    assert intent.grammar.probs["VII"] == pytest.approx(5 / denom)
    assert validate(intent.grammar) == []


def test_build_intent_null_player_rules_zero():
    spec = IntentClassSpec(
        class_id="null3",
        sensors=sensors_from_traces((2.0, 3.0, 0.0)),
        assignment=triangle_assignment(),
    )
    intent = build_intent(spec, "nucleolus")
    for rule_id in ("VII", "VIII", "IX", "IXb", "X", "XI", "XII"):
        assert intent.grammar.probs[rule_id] == 0.0
    assert "XI" in intent.unreachable
    assert classify(intent.grammar) is GrammarClass.SCFG


def test_build_intent_symmetric_uniform():
    spec = IntentClassSpec(
        class_id="sym",
        sensors=sensors_from_traces((2.0, 2.0, 2.0)),
        assignment=triangle_assignment(),
    )
    intent = build_intent(spec, "nucleolus")
    s_rules = ("I", "II", "IV", "V", "VII", "VIII")
    for rule_id in s_rules:
        assert intent.grammar.probs[rule_id] == pytest.approx(1 / 6)


def test_build_intent_shapley_matches_nucleolus_for_modular():
    spec = default_config().classes[0]
    a = build_intent(spec, "nucleolus")
    b = build_intent(spec, "shapley")
    assert np.allclose(a.allocation, b.allocation, atol=1e-8)


# --- datasets ---------------------------------------------------------------


def test_generate_dataset_counts():
    cfg = small_config()
    train, test = generate_dataset(cfg, 0.0)
    assert len(train) == 10 * cfg.train_per_class
    assert len(test) == 10 * cfg.test_per_class
    assert len({r.class_id for r in train}) == 10


def test_dataset_deterministic_bytes(tmp_path):
    cfg = small_config()
    paths = []
    for tag in ("a", "b"):
        train, _ = generate_dataset(cfg, 0.1)
        path = tmp_path / f"train_{tag}.jsonl"
        write_records(str(path), train)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_dataset_q0_strings_parse_under_class_grammar():
    cfg = small_config()
    train, test = generate_dataset(cfg, 0.0)
    intents = {
        spec.class_id: build_intent(spec, cfg.allocation_method)
        for spec in cfg.classes
    }
    for record in train + test:
        tree = parse(record.string, intents[record.class_id].grammar)
        assert tree.leaf_yield() == record.string


def test_records_round_trip_and_modular_check(tmp_path):
    cfg = small_config()
    train, _ = generate_dataset(cfg, 0.2)
    path = tmp_path / "train.jsonl"
    write_records(str(path), train)
    back = read_records(str(path))
    assert back == train

    corrupt = [
        DatasetRecord(
            string=("d",), u_scaled=(0.0, 0.4, 0.4, 1.0), scale=1.0,
            class_id="bad", q=0.0, seed=0,
        )
    ]
    bad_path = tmp_path / "bad.jsonl"
    write_records(str(bad_path), corrupt)
    with pytest.raises(Exception):
        read_records(str(bad_path))


def test_scaled_tables_modular_and_normalized():
    cfg = small_config()
    for spec in cfg.classes:
        intent = build_intent(spec, cfg.allocation_method)
        table, scale = scaled_table(intent.char_fn)
        assert table[-1] == pytest.approx(1.0)
        u = game.CharacteristicFunction(3, np.array(table))
        assert game.is_modular(u, tol=1e-9)
        assert scale == pytest.approx(intent.char_fn.grand_value)


def test_graph_cache_fallback_for_unparseable():
    cfg = small_config()
    cache = GraphCache(cfg)
    graph = cache.graph_for(("c", "d"))
    assert cache.fallbacks == 1
    assert graph.n_nodes == 2


# --- training plumbing ------------------------------------------------------


def test_records_to_samples_and_baseline():
    cfg = small_config()
    cache = GraphCache(cfg)
    train, test = generate_dataset(cfg, 0.0)
    train_s = records_to_samples(train, cache)
    test_s = records_to_samples(test, cache)
    assert len(train_s) == len(train)
    baseline = constant_baseline_mse(train_s, test_s)
    assert baseline > 0
    # The constant predictor is optimal among constants: beating it with the
    # per-coalition median would not be possible for squared error.
    mean_table = np.mean([s.target.values for s in train_s], axis=0)
    worse = np.mean(
        [np.mean((mean_table * 1.1 - s.target.values) ** 2) for s in test_s]
    )
    assert worse >= baseline


# --- sweep ------------------------------------------------------------------


def test_run_sweep_rows_and_csv(tmp_path):
    cfg = small_config(
        q_grid=(0.0, 0.2, 0.4),
        train=gtnn.TrainConfig(epochs=2, seed=0),
    )
    csv_path = tmp_path / "sweep.csv"
    points = run_sweep(cfg, out_csv=str(csv_path))
    assert [p.q for p in points] == [0.0, 0.2, 0.4]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "q,kappa,mean_test_mse,train_seconds"
    assert len(lines) == 4
    # Append-only: a second sweep extends the same file.
    append_sweep_csv(str(csv_path), [SweepPoint(0.5, 0.0, 0.1, 0.1)])
    assert len(csv_path.read_text().strip().splitlines()) == 5


def test_single_class_degenerate_sweep_perfect_kappa(tmp_path):
    cfg = default_config()
    cfg = replace(
        cfg,
        classes=cfg.classes[:1],
        train_per_class=30,
        test_per_class=10,
        q_grid=(0.0,),
        eta=10.0,  # generous threshold: single-class task is degenerate
        train=gtnn.TrainConfig(epochs=5, seed=0),
    )
    points = run_sweep(cfg)
    assert points[0].kappa == 1.0


# --- end-to-end pipeline ----------------------------------------------------


def test_end_to_end_zero_noise_round_trip():
    cfg = default_config()
    intent = build_intent(cfg.classes[0], cfg.allocation_method)
    result = end_to_end_forward(intent, cfg, seed=5)
    assert result.merged_velocity == result.reference
    assert result.merged_letters is not None
    assert merge_tracks([tuple(
        intent.spec.direction_map[s] for s in result.letters
    )]) == result.reference


def test_end_to_end_hierarchical_example_merge():
    # Drive the golden hierarchical schedule through the pipeline directly.
    cfg = default_config()
    intent = build_intent(cfg.classes[0], cfg.allocation_method)
    found = None
    for seed in range(200):
        r = end_to_end_forward(intent, cfg, seed)
        if "".join(r.letters) == "dddbbbccc":
            found = r
            break
    if found is not None:
        expected = ("l1",) * 3 + ("l4",) * 3 + ("-l2",) * 3
        assert found.merged_velocity == expected


def test_end_to_end_deterministic():
    cfg = default_config()
    intent = build_intent(cfg.classes[1], cfg.allocation_method)
    a = end_to_end_forward(intent, cfg, seed=3)
    b = end_to_end_forward(intent, cfg, seed=3)
    assert a.merged_velocity == b.merged_velocity
    assert a.letters == b.letters


def test_end_to_end_schedule_structure():
    cfg = default_config()
    intent = build_intent(cfg.classes[0], cfg.allocation_method)
    r = end_to_end_forward(intent, cfg, seed=11)
    assert len(r.schedules) == cfg.n_players
    horizon = len(r.letters)
    assert all(len(s) == horizon for s in r.schedules)
    # Hierarchical prefixes: each target's active part extends the previous.
    actives = ["".join(sym for sym in s if sym != "0") for s in r.schedules]
    for shorter, longer in zip(actives, actives[1:]):
        assert longer.startswith(shorter)


def test_reference_grammar_parses_all_class_outputs():
    cfg = small_config()
    ref = reference_grammar()
    train, _ = generate_dataset(cfg, 0.0)
    for record in train:
        assert parse(record.string, ref).leaf_yield() == record.string
