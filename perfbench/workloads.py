"""The benchmark's workloads.  Each runs in its own process as a single
closed-loop client: the next operation starts when the previous one ends, and
a run repeats whole rounds until --seconds have passed.

- sweep_clean / sweep_noisy: an operation (and a round) is one sweep point,
  `harness.run_point` (generate_dataset -> records_to_samples -> train ->
  evaluate/mean_loss), each point with a cold string->graph memo, as the
  first point of a user's sweep.
- track_infer: an operation is one request (build_intent ->
  end_to_end_forward -> GraphCache.graph_for -> forward + coalition_values);
  a round is a fixed stream of requests cycling over the ten intents, with
  one memo shared by the round's requests, against a served model trained at
  set-up.

The program's inputs (the sweep datasets and the request stream) are the
same in every run, because parse cost grows exponentially with string length
and seed-drawn inputs make the run's work heavy-tailed; --seed drives the
model seeds.  See README.md.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from groupintent import game, grammar, gtnn, harness, kinematics, lcfrs, metaparse
from groupintent.gtnn import ModelConfig, TrainConfig

import reference as ref
import spans as spans_mod
from reference import require


@dataclass(frozen=True)
class Sizes:
    train_per_class: int
    test_per_class: int
    sweep_epochs: dict
    requests_per_round: int     # track_infer; a multiple of the class count
    served_train_per_class: int
    served_epochs: int
    sweep_setup_repeats: int
    track_setup_repeats: int


FULL = Sizes(train_per_class=100, test_per_class=10,
             sweep_epochs={"sweep_clean": 5, "sweep_noisy": 20},
             requests_per_round=1000,
             served_train_per_class=10, served_epochs=8,
             sweep_setup_repeats=300, track_setup_repeats=5)
SMOKE = Sizes(train_per_class=8, test_per_class=2,
              sweep_epochs={"sweep_clean": 2, "sweep_noisy": 2},
              requests_per_round=40,
              served_train_per_class=4, served_epochs=2,
              sweep_setup_repeats=20, track_setup_repeats=2)

SWEEP_Q = {"sweep_clean": 0.0, "sweep_noisy": 0.4}

REQUEST_STREAM = 20240601
# Errors the program reports for one operation: counted as failed operations.
PROGRAM_ERRORS = (game.GameError, grammar.GrammarError, gtnn.GtnnError,
                  lcfrs.ParseError, harness.HarnessError,
                  kinematics.KinematicsError, np.linalg.LinAlgError)
LENGTH_BUCKETS = (("len_01_10", 1, 10), ("len_11_15", 11, 15),
                  ("len_16_20", 16, 20), ("len_21_up", 21, 10**9))
TAIL_PERCENTILES = (90.0, 99.0, 99.9)


def sub_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def tail_percentile(n: int) -> float:
    """The highest percentile of the ladder with at least ten samples beyond
    it; the median when there are too few samples for a tail."""
    fits = [p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10.0]
    return fits[-1] if fits else 50.0


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values), p))


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0


@dataclass
class RunState:
    """What a run measured, for the end-to-end and the per-layer report."""

    ops: int = 0
    failed: int = 0
    # Wall times by kind: "setup", "op" (a sweep point, or a cycle of ten
    # requests on track_infer), "train" (gtnn.train calls) and "request" (a
    # track_infer request, or a sweep point: the sweeps' client waits for
    # whole points).
    times: dict = field(default_factory=dict)
    train_work: list = field(default_factory=list)      # samples x epochs
    mses: list = field(default_factory=list)
    kappas: list = field(default_factory=list)
    # per-layer facts that come from outputs rather than spans
    layer: dict = field(default_factory=dict)
    class_hits: dict = field(default_factory=dict)      # class -> [hits, total]
    floors: dict = field(default_factory=dict)          # class -> [floor, ...]
    histories: list = field(default_factory=list)


def _failed(state: RunState, what: str, exc: Exception) -> None:
    state.ops += 1
    state.failed += 1
    print(f"perfbench: {what} failed: {exc!r}", file=sys.stderr)


def _record_times(state: RunState, kind: str, times) -> None:
    state.times.setdefault(kind, []).extend(times)


def _timed_setups(state: RunState, repeats: int, build) -> list:
    """Run `build` `repeats` times, timing each; returns every result."""
    results = []
    for _ in range(repeats):
        started = time.perf_counter()
        results.append(build())
        _record_times(state, "setup", [time.perf_counter() - started])
    return results


def _record_class(state: RunState, class_id: str, hit: bool) -> None:
    tally = state.class_hits.setdefault(class_id, [0, 0])
    tally[0] += int(hit)
    tally[1] += 1


def _record_floors(state: RunState, model, classes) -> None:
    signed = model.config.head_activation == "identity"
    for spec in classes:
        floor = ref.head_floor_mse(model.coupling, ref.scaled_table(spec), signed)
        state.floors.setdefault(spec.class_id, []).append(floor)


# -- sweeps ------------------------------------------------------------------


def _capturing(store: list, fn):
    def capture(*args, **kwargs):
        out = fn(*args, **kwargs)
        store.append((args, out))
        return out
    return capture


def _forget_conversions() -> None:
    """Empty the program's grammar -> LCFRS memo, so that a set-up pays the
    conversion as a fresh process does."""
    memo = getattr(lcfrs, "_conversion_cache", None)
    if memo is not None:
        memo.clear()


def _sweep_setup(epochs: int, sizes: Sizes):
    """What a sweep builds before its first point: the config and the
    reference grammar converted to its parser tables.  The conversion is
    memoised per process, so the memo is emptied first and every repeat
    times a cold conversion, as a user's first sweep pays it.  Each
    conversion leaves cyclic garbage; collecting it before the timer keeps
    the repeats from raising the run's peak RSS."""
    _forget_conversions()
    gc.collect()
    started = time.perf_counter()
    cfg = harness.default_config(train_per_class=sizes.train_per_class,
                                 test_per_class=sizes.test_per_class)
    cfg = replace(cfg, train=replace(cfg.train, epochs=epochs))
    harness.GraphCache(cfg)
    return cfg, time.perf_counter() - started


def _tracing(tracer):
    return spans_mod.installed(tracer) if tracer is not None else nullcontext()


def _span(tracer):
    return tracer.span if tracer is not None else (lambda name: nullcontext())


def run_sweep(workload: str, seed: int, seconds: float, sizes: Sizes,
              tracer=None) -> RunState:
    q, epochs = SWEEP_Q[workload], sizes.sweep_epochs[workload]
    state = RunState()
    for _ in range(sizes.sweep_setup_repeats):
        base, elapsed = _sweep_setup(epochs, sizes)
        _record_times(state, "setup", [elapsed])
    measuring = time.perf_counter()
    with _tracing(tracer):
        while state.ops == 0 or time.perf_counter() - measuring < seconds:
            try:
                _sweep_point(state, seed, base, q, _span(tracer))
            except PROGRAM_ERRORS as exc:
                _failed(state, f"sweep point {state.ops}", exc)
    return state


def _sweep_point(state: RunState, seed: int, base, q: float, span):
    """Time one `harness.run_point` with a cold memo; the records, samples,
    training history (and, on the first point, parse trees and allocations)
    are captured on their way through the program for the checks."""
    model_seed = sub_seed(seed, state.ops)
    cfg = replace(base, model=replace(base.model, seed=model_seed),
                  train=replace(base.train, seed=model_seed))
    eta = cfg.eta
    datasets: list = []
    conversions: list = []
    trainings: list = []
    trees: list = []
    allocations: list = []
    capture = [(harness, "generate_dataset",
                _capturing(datasets, harness.generate_dataset)),
               (harness, "records_to_samples",
                _capturing(conversions, harness.records_to_samples)),
               (gtnn, "train", _capturing(trainings, gtnn.train))]
    if state.ops == 0:
        capture += [(metaparse, "parse", _capturing(trees, metaparse.parse)),
                    (game, "nucleolus", _capturing(allocations, game.nucleolus))]
    with spans_mod.patched(capture), span("sweep_point"):
        started = time.perf_counter()
        point, model = harness.run_point(cfg, q, harness.GraphCache(cfg))
        point_time = time.perf_counter() - started
    require(len(datasets) == 1 and len(conversions) == 2 and len(trainings) == 1,
            "run_point no longer makes one dataset, two sample lists and one "
            "training")
    train_recs, test_recs = datasets[0][1]
    (_, train_s), ((_, cache), test_s) = conversions
    _, history = trainings[0][1]
    mse, kappa = point.mean_test_mse, point.kappa
    _record_times(state, "op", [point_time])
    _record_times(state, "request", [point_time])
    _record_times(state, "train", [point.train_seconds])
    state.train_work.append(len(train_s) * cfg.train.epochs)
    state.ops += 1
    state.mses.append(mse)
    state.kappas.append(kappa)
    state.histories.append(history)

    # Checks against computations made apart from the program.
    ref.check_records(train_recs + test_recs, cfg.classes)
    if allocations:
        require(len(allocations) == len(cfg.classes),
                f"{len(allocations)} nucleolus calls for {len(cfg.classes)} classes")
        for spec, (_, pi) in zip(cfg.classes, allocations):
            ref.check_allocation(spec, pi)
    for args, tree in trees:
        ref.check_tree(tree, args[0], cache.ref)
    require(history[-1] < history[0],
            f"last-epoch loss {history[-1]} not below first {history[0]}")
    ref_losses = [float(np.mean((ref.forward_values(model, s.graph)
                                 - s.target.values) ** 2)) for s in test_s]
    ref_mse = float(np.mean(ref_losses))
    require(abs(ref_mse - mse) <= 1e-9 * ref_mse,
            f"test_mse {mse} != reference {ref_mse}")
    near = sum(1 for x in ref_losses if abs(x - eta) <= 1e-12)
    ref_kappa = sum(1 for x in ref_losses if x <= eta) / len(ref_losses)
    require(abs(ref_kappa - kappa) <= near / len(ref_losses) + 1e-15,
            f"kappa {kappa} != reference {ref_kappa}")
    for record, loss in zip(test_recs, ref_losses):
        _record_class(state, record.class_id, loss <= eta)
    _record_floors(state, model, cfg.classes)

    strings = {r.string for r in train_recs + test_recs}
    state.layer = {
        "metaparse.unique_strings": len(strings),
        "metaparse.fallbacks": cache.fallbacks,
        "metaparse.parsed_ratio": (len(strings) - cache.fallbacks) / len(strings),
        "metaparse.graph_nodes_max": max(s.graph.n_nodes for s in train_s + test_s),
        "gtnn.distinct_pairs": len({(r.string, r.u_scaled) for r in train_recs}),
        "n_train": len(train_s),
        "n_test": len(test_s),
        "epochs": cfg.train.epochs,
    }


# -- track_infer -------------------------------------------------------------


def _served_model(seed: int, sizes: Sizes):
    """Config and the served model, trained from the run's seed on the
    default master seed's first records per class at q = 0."""
    _forget_conversions()
    cfg = harness.default_config()
    small = replace(cfg, train_per_class=sizes.served_train_per_class,
                    test_per_class=1)
    train_recs, _ = harness.generate_dataset(small, 0.0)
    samples = harness.records_to_samples(train_recs, harness.GraphCache(cfg))
    model_seed = sub_seed(seed)
    started = time.perf_counter()
    model, history = gtnn.train(
        samples, TrainConfig(epochs=sizes.served_epochs, seed=model_seed),
        model_cfg=ModelConfig(n_players=cfg.n_players, seed=model_seed))
    train_time = time.perf_counter() - started
    return cfg, model, history, train_time, len(samples) * sizes.served_epochs


def run_track(seed: int, seconds: float, sizes: Sizes, tracer=None) -> RunState:
    state = RunState()
    setups = _timed_setups(state, sizes.track_setup_repeats,
                           lambda: _served_model(seed, sizes))
    cfg, model, history, _, _ = setups[-1]
    _record_times(state, "train", [out[3] for out in setups])
    state.train_work.extend(out[4] for out in setups)
    for out in setups:
        require(all(np.array_equal(a, b) for a, b in zip(
            model.trainable().values(), out[1].trainable().values())),
            "repeated set-ups trained different served models")
    state.histories.append(history)
    _record_floors(state, model, cfg.classes)
    targets = {spec.class_id: ref.scaled_table(spec) for spec in cfg.classes}
    losses: list = []
    measuring = time.perf_counter()
    with _tracing(tracer):
        while state.ops == 0 or time.perf_counter() - measuring < seconds:
            _request_round(state, cfg, model, targets, losses, sizes,
                           _span(tracer))
    state.mses.append(float(np.mean(losses)))
    state.kappas.append(sum(1 for x in losses if x <= cfg.eta) / len(losses))
    return state


def _request_round(state: RunState, cfg, model, targets, losses, sizes, span):
    """One fixed stream of requests against a cold memo shared by the round."""
    cache = harness.GraphCache(cfg)
    n_classes = len(cfg.classes)
    strings = set()
    cycle = 0.0
    for i in range(sizes.requests_per_round):
        if i and i % n_classes == 0:
            _record_times(state, "op", [cycle])
            cycle = 0.0
        spec = cfg.classes[i % n_classes]
        try:
            with span("request"):
                started = time.perf_counter()
                intent = harness.build_intent(spec, cfg.allocation_method)
                result = harness.end_to_end_forward(intent, cfg,
                                                    sub_seed(REQUEST_STREAM, i))
                graph = cache.graph_for(result.merged_letters)
                theta = gtnn.forward(model, graph)
                values = gtnn.coalition_values(theta, model.coupling)
                elapsed = time.perf_counter() - started
        except PROGRAM_ERRORS as exc:
            _failed(state, f"request {i}", exc)
            continue
        _record_times(state, "request", [elapsed])
        state.ops += 1
        cycle += elapsed

        ref.check_allocation(spec, intent.allocation)
        require(result.merged_letters == ref.post_merge(result.letters),
                f"request {i}: merged {result.merged_letters} != "
                f"post-merge form of {result.letters}")
        require(np.allclose(values, ref.forward_values(model, graph),
                            rtol=1e-9, atol=1e-12),
                "gtnn.forward/coalition_values differ from the reference pass")
        loss = float(np.mean((values - targets[spec.class_id]) ** 2))
        losses.append(loss)
        _record_class(state, spec.class_id, loss <= cfg.eta)
        strings.add(result.merged_letters)
    _record_times(state, "op", [cycle])
    state.layer = {
        "metaparse.unique_strings": len(strings),
        "metaparse.fallbacks": cache.fallbacks,
        "metaparse.parsed_ratio": (len(strings) - cache.fallbacks) / len(strings),
        "metaparse.graph_nodes_max": max(cache.graph_for(s).n_nodes for s in strings),
        "gtnn.distinct_pairs": 0,
        "n_train": 0,
        "n_test": 0,
        "epochs": 0,
    }


def run(workload: str, seed: int, seconds: float, sizes: Sizes, tracer=None):
    if workload == "track_infer":
        return run_track(seed, seconds, sizes, tracer)
    return run_sweep(workload, seed, seconds, sizes, tracer)


# -- reports -----------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(state: RunState) -> dict:
    times = state.times
    requests = times["request"]
    return {
        "setup_s": (statistics.median(times["setup"]), "s"),
        # A mean, not a median: on a host that alternates between two speeds,
        # the median of a few points jumps between them.
        "sweep_point_s": (statistics.mean(times["op"]), "s"),
        "train_samples_per_s": (sum(state.train_work) / sum(times["train"]),
                                "samples/s"),
        "test_mse": (float(np.mean(state.mses)), "mse"),
        "kappa": (float(np.mean(state.kappas)), "share"),
        "requests_per_s": (len(requests) / sum(requests), "1/s"),
        "request_p50_ms": (1e3 * percentile(requests, 50.0), "ms"),
        "request_tail_ms": (1e3 * percentile(requests,
                                             tail_percentile(len(requests))), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def layer_metrics(state: RunState, tracer: spans_mod.Tracer, classes) -> dict:
    ops = max(state.ops, 1)
    ms = 1e3

    def per_op(name):
        return len(tracer.durations(name)) / ops, "count"

    def seconds_per_op(name):
        return sum(tracer.durations(name)) / ops, "s"

    def call_ms(name, own=False):
        """Median time per call; `own` excludes traced calls beneath it."""
        times = tracer.self_times(name) if own else tracer.durations(name)
        return ms * median_or_zero(times), "ms"

    layer = state.layer
    parses = list(zip(tracer.durations("metaparse.parse"),
                      tracer.attrs("metaparse.parse")))
    out = {
        "game.nucleolus_ms": call_ms("game.nucleolus", own=True),
        "game.nucleolus_calls": per_op("game.nucleolus"),
        "lp.solve_calls": per_op("lp.solve_lp"),
        "lp.solve_ms": call_ms("lp.solve_lp"),
        "harness.build_intent_ms": call_ms("harness.build_intent"),
        "grammar.generate_ms": call_ms("grammar.generate"),
        "grammar.generate_calls": per_op("grammar.generate"),
        "harness.generate_dataset_s": seconds_per_op("harness.generate_dataset"),
        "metaparse.parse_calls": per_op("metaparse.parse"),
        "metaparse.parse_s": seconds_per_op("metaparse.parse"),
    }
    for bucket, lo, hi in LENGTH_BUCKETS:
        inside = [(d, a) for d, a in parses if lo <= a["length"] <= hi]
        items = [a["chart_items"] for _, a in inside if "chart_items" in a]
        out[f"metaparse.parse_ms.{bucket}"] = (
            ms * median_or_zero([d for d, _ in inside]), "ms")
        out[f"lcfrs.chart_items.{bucket}"] = (
            float(np.mean(items)) if items else 0.0, "count")
    encode_merge = (seconds_per_op("metaparse.encode")[0]
                    + seconds_per_op("metaparse.merge_tracks")[0])
    out.update({
        "metaparse.unique_strings": (layer["metaparse.unique_strings"], "count"),
        "metaparse.tree_to_graph_ms": call_ms("metaparse.tree_to_graph"),
        "metaparse.graph_nodes_max": (layer["metaparse.graph_nodes_max"], "count"),
        "harness.records_to_samples_s": seconds_per_op("harness.records_to_samples"),
        "metaparse.fallbacks": (layer["metaparse.fallbacks"], "count"),
        "metaparse.parsed_ratio": (layer["metaparse.parsed_ratio"], "share"),
        "kinematics.simulate_ms": call_ms("kinematics.simulate_track"),
        "kinematics.observe_ms": call_ms("kinematics.observe"),
        "kinematics.kalman_ms": call_ms("kinematics.kalman_filter"),
        "metaparse.encode_merge_ms": (ms * encode_merge, "ms"),
    })
    train_s = seconds_per_op("gtnn.train")[0]
    sample_epochs = layer["n_train"] * layer["epochs"]
    out.update({
        "gtnn.train_s": (train_s, "s"),
        "gtnn.train_ms_per_sample_epoch": (
            ms * train_s / sample_epochs if sample_epochs else 0.0, "ms"),
        "gtnn.backward_calls": per_op("gtnn.backward_with_loss"),
        "gtnn.backward_ms": call_ms("gtnn.backward_with_loss", own=True),
        "gtnn.distinct_pairs": (layer["gtnn.distinct_pairs"], "count"),
        "gtnn.loss_first_epoch": (float(np.mean([h[0] for h in state.histories])), "mse"),
        "gtnn.loss_last_epoch": (float(np.mean([h[-1] for h in state.histories])), "mse"),
    })
    for spec in classes:
        hits, total = state.class_hits.get(spec.class_id, [0, 0])
        out[f"gtnn.class_kappa.{spec.class_id}"] = (hits / total if total else 0.0, "share")
    for spec in classes:
        out[f"gtnn.head_floor_mse.{spec.class_id}"] = (
            float(np.mean(state.floors[spec.class_id])), "mse")
    n_eval = layer["n_test"] * ops
    evaluate_s = sum(tracer.durations("gtnn.evaluate"))
    out.update({
        "gtnn.evaluate_ms_per_sample": (ms * evaluate_s / n_eval if n_eval else 0.0, "ms"),
        "gtnn.forward_ms": call_ms("gtnn.forward"),
    })
    return out
