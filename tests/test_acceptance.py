"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

The heavyweight learning criterion is last; the full suite is sized for a
laptop.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from groupintent import game, gtnn, harness
from groupintent.game import SensorSpec, fisher_charfn, is_in_core, is_modular
from groupintent.grammar import (
    SCFG_RULE_IDS,
    SRG_RULE_IDS,
    apply_noise,
    generate,
    restricted,
    triangle_grammar,
)
from groupintent.lcfrs import ParseError
from groupintent.metaparse import merge_tracks, parse

from test_game import grid_lexicographic_oracle


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number} PASS ({elapsed:.1f}s): {description}")


def random_fisher_game(rng, n_players, null_player=None):
    sensors = []
    for j in range(n_players):
        if j == null_player:
            sensors.append(SensorSpec(H=np.zeros((1, 2)), R=np.eye(1)))
        else:
            h = rng.uniform(0.3, 3.0, size=(1, 2))
            sensors.append(SensorSpec(H=h, R=np.eye(1)))
    return fisher_charfn(sensors), sensors


def solo_rule_grammar(n_players):
    """One LHS group with one rule per player, each assigned solo."""
    from groupintent.grammar import Grammar, ProductionRule, nt, t

    terminals = frozenset(f"a{i}" for i in range(n_players))
    rules = tuple(
        ProductionRule(f"r{i}", (nt("S"),), (t(f"a{i}"),)) for i in range(n_players)
    )
    g = Grammar(
        nonterminals=frozenset({"S"}),
        terminals=terminals,
        start="S",
        rules=rules,
        probs={f"r{i}": 1.0 / n_players for i in range(n_players)},
    )
    assignment = {f"r{i}": frozenset({i}) for i in range(n_players)}
    return g, assignment


def test_criterion_1_null_player_payoff_and_rule_probability():
    with criterion(1, "null players get zero nucleolus payoff and zero rule "
                      "probability (50 games, N=3..6)"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        for trial in range(50):
            n = 3 + trial % 4
            null_idx = int(rng.integers(n))
            u, _ = random_fisher_game(rng, n, null_player=null_idx)
            assert game.is_null_player(u, null_idx, tol=1e-12)
            pi = game.nucleolus(u)
            assert abs(pi[null_idx]) <= 1e-8
            g, assignment = solo_rule_grammar(n)
            result = game.rule_probabilities(pi, assignment, g)
            assert abs(result.probs[f"r{null_idx}"]) <= 1e-12
        assert time.perf_counter() - started < 30.0


def test_criterion_2_fisher_games_modular_and_shapley_in_core():
    with criterion(2, "Fisher games are modular; Shapley equals the trace "
                      "vector and sits in the core (50 games)"):
        rng = np.random.default_rng(202)
        for trial in range(50):
            n = 3 + trial % 4
            u, sensors = random_fisher_game(rng, n)
            traces = np.array(
                [np.trace(s.information_matrix()) for s in sensors]
            )
            assert is_modular(u, tol=1e-9)
            # Marginal gains vs per-player information traces.
            for j in range(n):
                bit = 1 << j
                masks = [m for m in range(2**n) if not m & bit]
                marginals = np.array(
                    [u.value(m | bit) - u.value(m) for m in masks]
                )
                assert np.abs(marginals - traces[j]).max() < 1e-9
            phi = game.shapley(u)
            assert np.abs(phi - traces).max() < 1e-9
            assert is_in_core(u, phi, tol=1e-9)


def test_criterion_3_nucleolus_grid_oracle_equivalence():
    with criterion(3, "nucleolus matches the simplex-grid lexicographic "
                      "oracle on 100 random 3-player games"):
        started = time.perf_counter()
        rng = np.random.default_rng(303)
        for _ in range(100):
            values = np.concatenate(
                [[0.0], rng.integers(0, 11, size=7).astype(float)]
            )
            u = game.CharacteristicFunction(3, values)
            pi = game.nucleolus(u)
            oracle = grid_lexicographic_oracle(u, step=1e-3)
            assert np.abs(pi - oracle).max() <= 5e-3
        assert time.perf_counter() - started < 300.0


def test_criterion_4_round_trip_and_goldens():
    with criterion(4, "1000 generations per grammar class all parse; golden "
                      "strings parse under their rule subsets; 'cab' fails"):
        g = triangle_grammar()
        classes = {
            "SRG": restricted(g, SRG_RULE_IDS),
            "SCFG": restricted(g, SCFG_RULE_IDS),
            "SCSG": g,
        }
        for name, sub in classes.items():
            verdicts = {}
            produced = 0
            seed = 0
            while produced < 1000:
                try:
                    s = generate(sub, seed)
                except Exception:
                    seed += 1
                    continue
                produced += 1
                seed += 1
                if s not in verdicts:
                    tree = parse(s, sub)
                    verdicts[s] = tree.leaf_yield() == s
                assert verdicts[s], (name, s)
        goldens = {
            ("d",): ("I", "II", "III"),
            tuple("ddbb"): ("III", "IV", "V", "VI"),
            tuple("ddbbcc"): ("VII", "VIII", "IX", "IXb", "X", "XI", "XII"),
            tuple("dddbbbcc"): (
                "IV", "V", "VI", "VII", "VIII", "IX", "IXb", "X", "XI", "XII"
            ),
        }
        for string, subset in goldens.items():
            tree = parse(string, restricted(g, subset))
            assert tree.leaf_yield() == string
            assert set(tree.applied_rules()) <= set(subset)
        with pytest.raises(ParseError):
            parse(list("cab"), g)


def test_criterion_5_noise_channel_normalization():
    with criterion(5, "noise channel keeps every active LHS group normalized "
                      "and rescales originals by exactly (1 - q)"):
        g = triangle_grammar()
        built_ins = [
            g,
            restricted(g, SRG_RULE_IDS),
            restricted(g, SCFG_RULE_IDS),
        ]
        for base in built_ins:
            for q in (0.0, 0.1, 0.3):
                noisy = apply_noise(base, q)
                for rule in base.rules:
                    assert noisy.probs[rule.id] == base.probs[rule.id] * (1.0 - q)
                for _, rules in noisy.lhs_groups().items():
                    total = sum(noisy.probs[r.id] for r in rules)
                    base_total = sum(
                        base.probs.get(r.id, 0.0) for r in rules if not r.is_noise
                    )
                    if base_total == 0.0:
                        assert total == 0.0  # disabled groups stay disabled
                    else:
                        assert abs(total - 1.0) <= 1e-12


def test_criterion_6_merge_goldens():
    with criterion(6, "the three multi-target merge examples reproduce their "
                      "printed strings exactly"):
        ex1 = (
            ("l1",) * 3 + ("0",) * 6,
            ("l1",) * 3 + ("l4",) * 3 + ("0",) * 3,
            ("l1",) * 3 + ("l4",) * 3 + ("-l2",) * 3,
        )
        assert merge_tracks(ex1) == ("l1",) * 3 + ("l4",) * 3 + ("-l2",) * 3
        ex2 = (("l1",) * 3 + ("l4",) * 3, ("l2",) * 3 + ("-l4",) * 3)
        assert merge_tracks(ex2) == ("l1",) * 3 + ("l2",) * 3 + ("l4",) * 3
        ex3 = (
            ("l1", "l2", "l1", "-l4", "l4", "l4"),
            ("l2", "l1", "l2", "l4", "-l4", "-l4"),
        )
        assert merge_tracks(ex3) == ("l1",) * 3 + ("l2",) * 3 + ("l4",) * 3


def test_criterion_7_gradient_check():
    with criterion(7, "analytic gradients match central finite differences "
                      "below 1e-4 over 10 random triples"):
        started = time.perf_counter()
        from gtnn_oracle import gradient_check
        from test_gtnn import random_sample

        worst = 0.0
        for seed in range(10):
            cfg = gtnn.ModelConfig(
                feature_dim=6, hidden_dim=8, n_gcn_layers=2,
                n_attention_heads=2, key_dim=3, n_players=3, seed=seed,
            )
            model = gtnn.init_model(cfg)
            worst = max(worst, gradient_check(model, random_sample(seed, cfg)))
        assert worst < 1e-4
        assert time.perf_counter() - started < 60.0


@pytest.mark.slow
def test_criterion_8_learning_sanity():
    with criterion(8, "overfit run drops below 1% of initial loss; 10-class "
                      "training beats the constant predictor at q=0; median "
                      "kappa(q=0) >= median kappa(q=0.4) over 3 seeds"):
        started = time.perf_counter()
        # (a) Overfit one sample: exact fit exists for a zero-sum reference
        # parameter vector under the signed head.
        from test_gtnn import head_reachable_sample

        overfit_cfg = gtnn.ModelConfig(n_players=3, seed=3)
        probe = gtnn.init_model(overfit_cfg)
        sample = head_reachable_sample(21, probe, cfg=overfit_cfg)
        _, history = gtnn.train(
            [sample] * 20,
            gtnn.TrainConfig(epochs=200, learning_rate=1e-2, seed=0),
            model_cfg=overfit_cfg,
        )
        assert history[-1] < 0.01 * history[0]

        # (b) + (c) Desk-scale datasets across seeds and noise levels.
        base = harness.default_config()
        cache = harness.GraphCache(base)
        kappas = {0.0: [], 0.4: []}
        beaten = None
        for replicate in range(3):
            cfg = replace(
                base,
                master_seed=base.master_seed + replicate,
                model=replace(base.model, seed=replicate),
                train=replace(base.train, seed=replicate),
            )
            for q in (0.0, 0.4):
                train_recs, test_recs = harness.generate_dataset(cfg, q)
                train_s = harness.records_to_samples(train_recs, cache)
                test_s = harness.records_to_samples(test_recs, cache)
                model_cfg = replace(cfg.model, n_players=cfg.n_players)
                model, _ = gtnn.train(train_s, cfg.train, model_cfg=model_cfg)
                kappa = gtnn.evaluate(model, test_s, cfg.eta)
                kappas[q].append(kappa)
                if q == 0.0 and replicate == 0:
                    mse = gtnn.mean_loss(model, test_s)
                    baseline = harness.constant_baseline_mse(train_s, test_s)
                    beaten = (mse, baseline)
        mse, baseline = beaten
        assert mse < baseline, f"model {mse} vs constant predictor {baseline}"
        assert np.median(kappas[0.0]) >= np.median(kappas[0.4]), kappas
        elapsed = time.perf_counter() - started
        print(f"\n  kappa(q=0)={kappas[0.0]} kappa(q=0.4)={kappas[0.4]} "
              f"mse={mse:.5f} baseline={baseline:.5f} [{elapsed:.0f}s]")
        assert elapsed < 1200.0


def test_criterion_9_zero_noise_end_to_end():
    with criterion(9, "grammar sample -> kinematics -> tracker -> encode -> "
                      "merge reproduces the post-merge string (100 runs)"):
        cfg = harness.default_config()
        runs = 0
        for spec in cfg.classes:
            intent = harness.build_intent(spec, cfg.allocation_method)
            for seed in range(10):
                result = harness.end_to_end_forward(intent, cfg, seed)
                assert result.merged_velocity == result.reference, (
                    spec.class_id, seed
                )
                runs += 1
        assert runs == 100
