"""Command-line interface.

Subcommands: simulate, solve-game, gen-data, parse, train, eval, sweep.
Exit codes: 0 success, 2 configuration error, 3 numerical/analysis failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import game, gtnn, harness, kinematics, metaparse
from .grammar import GrammarError
from .gtnn import GtnnError
from .harness import ConfigError, HarnessError
from .kinematics import KinematicsError
from .lcfrs import ParseError, UnsupportedGrammarError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_CONFIG_ERRORS = (ConfigError, UnsupportedGrammarError)
_NUMERICAL_ERRORS = (
    game.GameError, GrammarError, GtnnError, HarnessError, KinematicsError,
    ParseError, np.linalg.LinAlgError,
)


def _add_common(parser):
    parser.add_argument("--config", default=None, help="experiment config JSON")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--q", type=float, default=None, help="noise level override")
    parser.add_argument("--paper-scale", action="store_true",
                        help="full-size datasets (5000/500 per class)")


def _load_cfg(args) -> harness.ExperimentConfig:
    cfg = harness.load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if getattr(args, "paper_scale", False):
        cfg = harness.paper_scale(cfg)
    return cfg


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    spec = cfg.classes[0]
    if args.class_id:
        spec = next((c for c in cfg.classes if c.class_id == args.class_id), None)
        if spec is None:
            known = ", ".join(c.class_id for c in cfg.classes)
            raise ConfigError(
                f"unknown class id {args.class_id!r}; known ids: {known}"
            )
    intent = harness.build_intent(spec, cfg.allocation_method)
    result = harness.end_to_end_forward(
        intent, cfg, seed=cfg.master_seed,
        process_noise_std=args.process_noise, obs_noise_std=args.obs_noise,
    )
    out_dir = _ensure_out(args)
    path = os.path.join(out_dir, f"tracks_{spec.class_id}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target_id", "k", "p1", "p2", "v1", "v2"])
        writer.writerows(kinematics.tracks_to_csv_rows(result.tracks))
    print(f"class:            {spec.class_id}")
    print(f"sample:           {' '.join(result.letters)}")
    print(f"post-merge form:  {' '.join(result.reference)}")
    print(f"merged (tracked): {' '.join(result.merged_velocity)}")
    print(f"tracks csv:       {path}")
    return EXIT_OK


def cmd_solve_game(args) -> int:
    with open(args.game) as fh:
        u = game.CharacteristicFunction.from_json(fh.read())
    pi_nuc = game.nucleolus(u)
    pi_sh = game.shapley(u)
    print("nucleolus:", np.array2string(pi_nuc, precision=8))
    print("shapley:  ", np.array2string(pi_sh, precision=8))
    print("nucleolus in core:", game.is_in_core(u, pi_nuc, 1e-6))
    print("shapley in core:  ", game.is_in_core(u, pi_sh, 1e-6))
    print("modular:", game.is_modular(u))
    for i in range(u.n_players):
        if game.is_null_player(u, i):
            print(f"null player: {i}")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    q = args.q if args.q is not None else cfg.q_grid[0]
    out_dir = _ensure_out(args)
    train, test = harness.generate_dataset(cfg, q)
    train_path = os.path.join(out_dir, f"train_q{q:g}.jsonl")
    test_path = os.path.join(out_dir, f"test_q{q:g}.jsonl")
    harness.write_records(train_path, train)
    harness.write_records(test_path, test)
    print(f"wrote {len(train)} train records to {train_path}")
    print(f"wrote {len(test)} test records to {test_path}")
    return EXIT_OK


def cmd_parse(args) -> int:
    g = harness.load_grammar(args.grammar or "builtin:triangle")
    tokens = args.string.split()
    tree = metaparse.parse(tokens, g)
    print(tree.to_json())
    print(f"probability: {tree.probability:.8g}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out_dir = _ensure_out(args)
    cache = harness.GraphCache(cfg)
    if args.data:
        records = harness.read_records(args.data)
    else:
        q = args.q if args.q is not None else cfg.q_grid[0]
        records, _ = harness.generate_dataset(cfg, q)
    samples = harness.records_to_samples(records, cache)
    model_cfg = replace(cfg.model, n_players=cfg.n_players)
    model, history = gtnn.train(samples, cfg.train, model_cfg=model_cfg)
    model_path = os.path.join(out_dir, "model.json")
    with open(model_path, "w") as fh:
        fh.write(gtnn.model_to_json(model))
    history_path = os.path.join(out_dir, "loss_history.csv")
    with open(history_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for epoch, value in enumerate(history):
            writer.writerow([epoch, value])
    print(f"trained on {len(samples)} samples")
    print(f"final mean loss: {history[-1]:.6g}")
    print(f"model: {model_path}")
    print(f"loss history: {history_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    with open(args.model) as fh:
        model = gtnn.model_from_json(fh.read())
    cache = harness.GraphCache(cfg)
    records = harness.read_records(args.data)
    samples = harness.records_to_samples(records, cache)
    kappa = gtnn.evaluate(model, samples, cfg.eta)
    mse = gtnn.mean_loss(model, samples)
    print(f"records:  {len(samples)}")
    print(f"kappa:    {kappa:.4f} (eta={cfg.eta})")
    print(f"mean mse: {mse:.6g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    if args.q is not None:
        cfg = replace(cfg, q_grid=(args.q,))
    out_dir = _ensure_out(args)
    csv_path = os.path.join(out_dir, "sweep.csv")
    points = harness.run_sweep(cfg, out_csv=csv_path)
    for p in points:
        print(f"q={p.q:.2f} kappa={p.kappa:.4f} mse={p.mean_test_mse:.6g} "
              f"({p.train_seconds:.1f}s)")
    print(f"results: {csv_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupintent",
        description="Group-intent pipeline: games -> grammars -> trajectories "
                    "-> parse trees -> intent inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the forward pipeline, write tracks CSV")
    _add_common(p)
    p.add_argument("--class-id", default=None)
    p.add_argument("--process-noise", type=float, default=0.0)
    p.add_argument("--obs-noise", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve-game", help="nucleolus/Shapley/core of a game JSON")
    p.add_argument("--game", required=True, help='{"n_players": N, "values": [...]}')
    p.set_defaults(func=cmd_solve_game)

    p = sub.add_parser("gen-data", help="generate train/test JSONL datasets")
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("parse", help="parse a terminal string, print the tree")
    p.add_argument("--grammar", default=None, help="grammar JSON, or builtin:triangle")
    p.add_argument("--string", required=True, help='space-separated, e.g. "d d b b c c"')
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("train", help="train a model, emit checkpoint + loss CSV")
    _add_common(p)
    p.add_argument("--data", default=None, help="JSONL dataset (else generated)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a JSONL dataset")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train/evaluate across the q grid")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
