import json
import os

import numpy as np
import pytest

from groupintent import harness
from groupintent.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from groupintent.game import CharacteristicFunction


@pytest.fixture()
def tiny_config_path(tmp_path):
    cfg = harness.default_config()
    obj = harness.config_to_dict(cfg)
    obj["train_per_class"] = 6
    obj["test_per_class"] = 2
    obj["q_grid"] = [0.0]
    obj["train"]["epochs"] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_solve_game_output(tmp_path, capsys):
    u = CharacteristicFunction(3, np.array([0, 2, 3, 5, 5, 7, 8, 10.0]))
    game_path = tmp_path / "game.json"
    game_path.write_text(u.to_json())
    assert main(["solve-game", "--game", str(game_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nucleolus:" in out and "shapley:" in out
    assert "modular: True" in out


def test_solve_game_infeasible_exit_code(tmp_path, capsys):
    u_path = tmp_path / "game.json"
    u_path.write_text(json.dumps({"n_players": 2, "values": [0, -1, -1, -3]}))
    assert main(["solve-game", "--game", str(u_path)]) == EXIT_NUMERICAL


def test_parse_builtin_grammar(capsys):
    assert main(["parse", "--string", "d d b b c c"]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"root"' in out
    assert "probability:" in out


def test_parse_failure_exit_code(capsys):
    assert main(["parse", "--string", "c a b"]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("text, reason", [
    ("not json {", "Expecting value"),
    (json.dumps({"nonterminals": ["S"]}), "missing key 'terminals'"),
], ids=["not-json", "missing-key"])
def test_malformed_grammar_file_is_config_error(tmp_path, capsys, text, reason):
    path = tmp_path / "grammar.json"
    path.write_text(text)
    assert main(["parse", "--grammar", str(path), "--string", "d"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and reason in err


def test_missing_config_is_config_error(tmp_path, capsys):
    rc = main(["gen-data", "--config", "/nope/missing.json", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


def test_bad_config_value_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    obj = harness.config_to_dict(harness.default_config())
    obj["eta"] = -1.0
    path.write_text(json.dumps(obj))
    rc = main(["gen-data", "--config", str(path), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("variable, value, command", [
    ("GROUPINTENT_MODEL__HIDDEN_DIM", "0", "sweep"),
    ("GROUPINTENT_TRAIN__BATCH_SIZE", "0", "sweep"),
    ("GROUPINTENT_TRAIN__BATCH_SIZE", "-4", "sweep"),
    ("GROUPINTENT_TRAIN__EPOCHS", "0", "train"),
], ids=["hidden_dim=0", "batch_size=0", "batch_size=-4", "epochs=0"])
def test_bad_model_or_train_setting_is_config_error(
    tmp_path, tiny_config_path, capsys, monkeypatch, variable, value, command
):
    monkeypatch.setenv(variable, value)
    out_dir = tmp_path / "out"
    rc = main([command, "--config", tiny_config_path, "--out", str(out_dir)])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out_dir.exists()


def test_gen_data_then_train_then_eval(tmp_path, tiny_config_path, capsys):
    out_dir = str(tmp_path / "out")
    rc = main(["gen-data", "--config", tiny_config_path, "--out", out_dir])
    assert rc == EXIT_OK
    train_path = os.path.join(out_dir, "train_q0.jsonl")
    test_path = os.path.join(out_dir, "test_q0.jsonl")
    assert os.path.exists(train_path) and os.path.exists(test_path)
    assert len(open(train_path).read().splitlines()) == 60

    rc = main([
        "train", "--config", tiny_config_path, "--data", train_path,
        "--out", out_dir,
    ])
    assert rc == EXIT_OK
    assert os.path.exists(os.path.join(out_dir, "model.json"))
    history = open(os.path.join(out_dir, "loss_history.csv")).read().splitlines()
    assert history[0] == "epoch,mean_loss"
    assert len(history) == 3  # header + 2 epochs

    rc = main([
        "eval", "--config", tiny_config_path,
        "--model", os.path.join(out_dir, "model.json"),
        "--data", test_path, "--out", out_dir,
    ])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "kappa:" in out


def test_simulate_writes_tracks_csv(tmp_path, tiny_config_path, capsys):
    out_dir = str(tmp_path / "sim")
    rc = main(["simulate", "--config", tiny_config_path, "--out", out_dir])
    assert rc == EXIT_OK
    csv_files = [f for f in os.listdir(out_dir) if f.startswith("tracks_")]
    assert csv_files
    lines = open(os.path.join(out_dir, csv_files[0])).read().splitlines()
    assert lines[0] == "target_id,k,p1,p2,v1,v2"
    assert len(lines) > 3


def test_sweep_creates_csv(tmp_path, tiny_config_path, capsys):
    out_dir = str(tmp_path / "sweep")
    rc = main(["sweep", "--config", tiny_config_path, "--out", out_dir])
    assert rc == EXIT_OK
    lines = open(os.path.join(out_dir, "sweep.csv")).read().splitlines()
    assert lines[0] == "q,kappa,mean_test_mse,train_seconds"
    assert len(lines) == 2


def test_seed_flag_changes_dataset(tmp_path, tiny_config_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    main(["gen-data", "--config", tiny_config_path, "--out", out_a, "--seed", "1"])
    main(["gen-data", "--config", tiny_config_path, "--out", out_b, "--seed", "2"])
    a = open(os.path.join(out_a, "train_q0.jsonl")).read()
    b = open(os.path.join(out_b, "train_q0.jsonl")).read()
    assert a != b


def test_simulate_unknown_class_id_is_config_error(tmp_path, tiny_config_path, capsys):
    out_dir = str(tmp_path / "sim")
    rc = main([
        "simulate", "--config", tiny_config_path, "--out", out_dir,
        "--class-id", "intent99",
    ])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "intent99" in err and "intent00" in err
    assert not os.path.exists(out_dir) or not os.listdir(out_dir)


@pytest.mark.parametrize("line", [
    "not json",
    json.dumps({"string": ["d"], "scale": 1.0, "class_id": "intent00",
                "q": 0.0, "seed": 0}),
    json.dumps({"string": ["d"], "u_scaled": [0.0, 0.5, 1.0], "scale": 1.0,
                "class_id": "intent00", "q": 0.0, "seed": 0}),
], ids=["not-json", "missing-field", "table-not-power-of-two"])
def test_malformed_dataset_line_is_numerical_failure(
    tmp_path, tiny_config_path, capsys, line
):
    good = json.dumps({"string": ["d"], "u_scaled": [0.0, 0.5, 0.5, 1.0],
                       "scale": 1.0, "class_id": "intent00", "q": 0.0, "seed": 0})
    data = tmp_path / "bad.jsonl"
    data.write_text(good + "\n" + line + "\n")
    rc = main([
        "train", "--config", tiny_config_path, "--data", str(data),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == EXIT_NUMERICAL
    assert "line 2" in capsys.readouterr().err
