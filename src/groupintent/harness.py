"""Experiment harness: intent-class construction, dataset generation,
training/evaluation orchestration, q-sweeps, and the forward simulation
pipeline from grammar sample to merged symbol string.

File formats: datasets are JSON-lines (one record per line, sorted keys, so
fixed seeds give byte-identical files); sweep results are append-only CSV.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import game, grammar as grammar_mod, gtnn, kinematics, metaparse
from .game import CharacteristicFunction, SensorSpec
from .grammar import Grammar, GrammarError, GenerationLimitError, DeadEndError
from .gtnn import GtnnError, ModelConfig, TrainConfig, TrainSample
from .kinematics import KalmanConfig, MultiTargetFrame
from .lcfrs import ParseError, lcfrs_for
from .metaparse import FeatureGraph

ENV_PREFIX = "GROUPINTENT_"


class ConfigError(Exception):
    pass


class HarnessError(Exception):
    pass


@dataclass(frozen=True)
class IntentClassSpec:
    class_id: str
    sensors: tuple[SensorSpec, ...]
    assignment: dict[str, frozenset[int]]
    grammar_ref: str = "builtin:triangle"
    direction_map: dict[str, str] = field(
        default_factory=grammar_mod.triangle_direction_map
    )


@dataclass(frozen=True)
class ExperimentConfig:
    n_players: int = 3
    classes: tuple[IntentClassSpec, ...] = ()
    allocation_method: str = "nucleolus"  # or "shapley"
    q_grid: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4)
    train_per_class: int = 500
    test_per_class: int = 50
    eta: float = 0.05
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    master_seed: int = 20240601
    speed: float = 1.0
    dt: float = 1.0
    zero_threshold: float = 0.25
    max_parse_length: int = 40
    max_generation_steps: int = 10_000
    generation_retry_cap: int = 20

    def __post_init__(self):
        if self.train_per_class <= 0 or self.test_per_class <= 0:
            raise ConfigError("dataset sizes must be positive")
        if any(not (0.0 <= q < 1.0) for q in self.q_grid):
            raise ConfigError("q values must lie in [0, 1)")
        if self.eta <= 0:
            raise ConfigError("eta must be positive")
        if self.allocation_method not in ("nucleolus", "shapley"):
            raise ConfigError(
                f"unknown allocation method {self.allocation_method!r}"
            )


# Trace patterns for the ten default intent classes.  Null players (zero
# observation matrix) zero out their rule groups, so those classes speak
# restricted sublanguages (line / corner / closing patterns); that spread is
# what makes the classes distinguishable from short samples.
_DEFAULT_TRACES: tuple[tuple[float, ...], ...] = (
    (2.0, 3.0, 5.0),
    (5.0, 3.0, 2.0),
    (4.0, 0.0, 0.0),
    (0.0, 4.0, 0.0),
    (0.0, 0.0, 4.0),
    (3.0, 3.0, 0.0),
    (0.0, 3.0, 3.0),
    (3.0, 0.0, 3.0),
    (1.0, 1.0, 1.0),
    (6.0, 1.0, 1.0),
)


def sensors_from_traces(traces) -> tuple[SensorSpec, ...]:
    """One-row observation matrices whose information trace equals the given
    value (H = [[sqrt(t), 0]], R = [[1]])."""
    out = []
    for t in traces:
        if t < 0:
            raise ConfigError("traces must be nonnegative")
        out.append(
            SensorSpec(H=np.array([[np.sqrt(t), 0.0]]), R=np.array([[1.0]]))
        )
    return tuple(out)


def default_config(**overrides) -> ExperimentConfig:
    classes = tuple(
        IntentClassSpec(
            class_id=f"intent{i:02d}",
            sensors=sensors_from_traces(traces),
            assignment=grammar_mod.triangle_assignment(),
        )
        for i, traces in enumerate(_DEFAULT_TRACES)
    )
    cfg = ExperimentConfig(classes=classes, **overrides)
    return cfg


def paper_scale(cfg: ExperimentConfig) -> ExperimentConfig:
    """Full-size dataset variant (supported but not an acceptance gate)."""
    return replace(cfg, train_per_class=5000, test_per_class=500)


# ---------------------------------------------------------------------------
# Config files and environment overrides
# ---------------------------------------------------------------------------


# The config file's scalar keys, in field order.
_SCALAR_KEYS = tuple(
    f.name for f in fields(ExperimentConfig)
    if f.name not in ("classes", "model", "train")
)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    scalars = {k: getattr(cfg, k) for k in _SCALAR_KEYS}
    scalars["q_grid"] = list(cfg.q_grid)
    return {
        **scalars,
        "model": asdict(cfg.model),
        "train": asdict(cfg.train),
        "classes": [
            {
                "class_id": spec.class_id,
                "sensors": [
                    {
                        "H": [[float(x) for x in row] for row in s.H],
                        "R": [[float(x) for x in row] for row in s.R],
                        "U": s.measurements,
                    }
                    for s in spec.sensors
                ],
                "assignment": {k: sorted(v) for k, v in spec.assignment.items()},
                "grammar_ref": spec.grammar_ref,
                "direction_map": dict(spec.direction_map),
            }
            for spec in cfg.classes
        ],
    }


def config_from_dict(obj: dict) -> ExperimentConfig:
    try:
        classes = tuple(
            IntentClassSpec(
                class_id=spec["class_id"],
                sensors=tuple(
                    SensorSpec(
                        H=np.array(s["H"], dtype=float),
                        R=np.array(s["R"], dtype=float),
                        measurements=int(s.get("U", 1)),
                    )
                    for s in spec["sensors"]
                ),
                assignment={
                    k: frozenset(int(p) for p in v)
                    for k, v in spec["assignment"].items()
                },
                grammar_ref=spec.get("grammar_ref", "builtin:triangle"),
                direction_map=dict(
                    spec.get("direction_map", grammar_mod.triangle_direction_map())
                ),
            )
            for spec in obj.get("classes", [])
        )
        model = ModelConfig(**obj.get("model", {}))
        train = TrainConfig(**obj.get("train", {}))
        scalars = {k: obj[k] for k in _SCALAR_KEYS if k in obj}
        if "q_grid" in scalars:
            scalars["q_grid"] = tuple(float(q) for q in scalars["q_grid"])
        cfg = ExperimentConfig(classes=classes, model=model, train=train, **scalars)
    except (KeyError, TypeError, ValueError, GtnnError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    if not cfg.classes:
        cfg = replace(
            cfg,
            classes=default_config().classes,
        )
    return cfg


def apply_env_overrides(obj: dict, environ=None) -> dict:
    """Override config keys from GROUPINTENT_* variables.

    Double underscores descend into sections: GROUPINTENT_TRAIN__EPOCHS=40
    sets train.epochs.  Values are parsed as JSON with a string fallback.
    """
    environ = os.environ if environ is None else environ
    out = json.loads(json.dumps(obj))  # deep copy
    for key, raw in sorted(environ.items()):
        if not key.startswith(ENV_PREFIX):
            continue
        path = key[len(ENV_PREFIX):].lower().split("__")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = out
        for part in path[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"cannot descend into {part!r} from {key}")
        target[path[-1]] = value
    return out


def load_config(path: str | None = None, environ=None) -> ExperimentConfig:
    if path is None:
        obj = config_to_dict(default_config())
    else:
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load config {path}: {exc}") from exc
    obj = apply_env_overrides(obj, environ)
    return config_from_dict(obj)


# ---------------------------------------------------------------------------
# Intent construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntentModel:
    spec: IntentClassSpec
    char_fn: CharacteristicFunction
    allocation: np.ndarray
    grammar: Grammar
    unreachable: frozenset[str]


def load_grammar(ref: str) -> Grammar:
    if ref == "builtin:triangle":
        return grammar_mod.triangle_grammar()
    try:
        with open(ref) as fh:
            return grammar_mod.grammar_from_json(fh.read())
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"cannot load grammar {ref!r}: {reason}") from exc


def build_intent(spec: IntentClassSpec, allocation_method: str = "nucleolus") -> IntentModel:
    """Characteristic function -> allocation -> rule probabilities."""
    base = load_grammar(spec.grammar_ref)
    u = game.fisher_charfn(list(spec.sensors))
    if allocation_method == "nucleolus":
        pi = game.nucleolus(u)
    elif allocation_method == "shapley":
        pi = game.shapley(u)
    else:
        raise ConfigError(f"unknown allocation method {allocation_method!r}")
    probs = game.rule_probabilities(pi, spec.assignment, base)
    built = base.with_probs(probs.probs)
    problems = grammar_mod.validate(built)
    if problems:
        raise HarnessError(
            f"intent {spec.class_id}: built grammar invalid: {problems}"
        )
    return IntentModel(
        spec=spec, char_fn=u, allocation=pi, grammar=built,
        unreachable=probs.unreachable,
    )


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetRecord:
    string: tuple[str, ...]
    u_scaled: tuple[float, ...]
    scale: float
    class_id: str
    q: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "string": list(self.string),
            "u_scaled": list(self.u_scaled),
            "scale": self.scale,
            "class_id": self.class_id,
            "q": self.q,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "DatasetRecord":
        return cls(
            string=tuple(obj["string"]),
            u_scaled=tuple(float(x) for x in obj["u_scaled"]),
            scale=float(obj["scale"]),
            class_id=str(obj["class_id"]),
            q=float(obj["q"]),
            seed=int(obj["seed"]),
        )


def scaled_table(u: CharacteristicFunction) -> tuple[tuple[float, ...], float]:
    """Divide by u(N) so the learner sees targets in [0, 1]; the scale is kept
    in every record for consistent evaluation."""
    scale = u.grand_value
    if scale <= 0:
        return tuple(float(v) for v in u.values), 1.0
    return tuple(float(v / scale) for v in u.values), float(scale)


def _sample_string(g: Grammar, seed: int, max_steps: int, retry_cap: int):
    for attempt in range(retry_cap):
        try:
            return grammar_mod.generate(g, seed + attempt * 0x9E3779B9, max_steps)
        except (GenerationLimitError, DeadEndError):
            continue
    raise HarnessError(
        f"generation failed {retry_cap} times (seed {seed}); "
        "the grammar may not terminate"
    )


def generate_dataset(cfg: ExperimentConfig, q: float):
    """Per class: build the intent, apply the noise channel, sample strings.

    Returns (train_records, test_records).  Record seeds derive from the
    master seed XOR a global record index, so files are byte-reproducible.
    """
    train: list[DatasetRecord] = []
    test: list[DatasetRecord] = []
    global_index = 0
    for spec in cfg.classes:
        intent = build_intent(spec, cfg.allocation_method)
        noisy = grammar_mod.apply_noise(intent.grammar, q) if q > 0 else intent.grammar
        table, scale = scaled_table(intent.char_fn)
        for split, count in (("train", cfg.train_per_class),
                             ("test", cfg.test_per_class)):
            bucket = train if split == "train" else test
            for _ in range(count):
                seed = cfg.master_seed ^ global_index
                global_index += 1
                string = _sample_string(
                    noisy, seed, cfg.max_generation_steps, cfg.generation_retry_cap
                )
                bucket.append(
                    DatasetRecord(
                        string=string, u_scaled=table, scale=scale,
                        class_id=spec.class_id, q=q, seed=seed,
                    )
                )
    return train, test


def write_records(path: str, records) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict(), sort_keys=True))
            fh.write("\n")


def read_records(path: str) -> list[DatasetRecord]:
    """Read a JSON-lines dataset; a malformed record, or one whose table is
    not modular, raises HarnessError naming its line."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = DatasetRecord.from_dict(json.loads(line))
                u = CharacteristicFunction(
                    n_players=int(np.log2(len(record.u_scaled))),
                    values=np.array(record.u_scaled),
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise HarnessError(
                    f"{path} line {lineno}: malformed record: {exc!r}"
                ) from exc
            if not game.is_modular(u, tol=1e-6):
                raise HarnessError(
                    f"{path} line {lineno}: corrupt record (non-modular table) "
                    f"for class {record.class_id}"
                )
            records.append(record)
    return records


# ---------------------------------------------------------------------------
# Records -> training samples
# ---------------------------------------------------------------------------


def reference_grammar() -> Grammar:
    """All dataset strings are parsed under the full built-in family with
    uniform probabilities; intent only shifts the string distribution."""
    return grammar_mod.triangle_grammar()


class GraphCache:
    """String -> FeatureGraph memo; grammar samples repeat heavily."""

    def __init__(self, cfg: ExperimentConfig, ref: Grammar | None = None):
        self.cfg = cfg
        self.ref = ref if ref is not None else reference_grammar()
        self.terminal_family = lcfrs_for(self.ref).n_families
        self._memo: dict[tuple[str, ...], FeatureGraph] = {}
        self.fallbacks = 0

    def graph_for(self, string: tuple[str, ...]) -> FeatureGraph:
        if string not in self._memo:
            feature_dim = self.cfg.model.feature_dim
            try:
                tree = metaparse.parse(string, self.ref, self.cfg.max_parse_length)
                graph = metaparse.tree_to_graph(tree, feature_dim)
            except ParseError:
                self.fallbacks += 1
                graph = metaparse.chain_graph(
                    string, feature_dim, family=self.terminal_family
                )
            self._memo[string] = graph
        return self._memo[string]


def records_to_samples(records, cache: GraphCache) -> list[TrainSample]:
    samples = []
    for record in records:
        n = int(np.log2(len(record.u_scaled)))
        target = CharacteristicFunction(n_players=n, values=np.array(record.u_scaled))
        samples.append(TrainSample(graph=cache.graph_for(record.string), target=target))
    return samples


def constant_baseline_mse(train_samples, test_samples) -> float:
    """Mean test MSE of the best constant predictor: the per-coalition mean
    of the training targets."""
    mean_table = np.mean([s.target.values for s in train_samples], axis=0)
    losses = [
        float(np.mean((mean_table - s.target.values) ** 2)) for s in test_samples
    ]
    return float(np.mean(losses))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("q", "kappa", "mean_test_mse", "train_seconds")


@dataclass(frozen=True)
class SweepPoint:
    q: float
    kappa: float
    mean_test_mse: float
    train_seconds: float


def run_point(cfg: ExperimentConfig, q: float, cache: GraphCache | None = None):
    """Build the q-dataset, train, evaluate; returns (SweepPoint, model)."""
    cache = cache or GraphCache(cfg)
    train_records, test_records = generate_dataset(cfg, q)
    train_samples = records_to_samples(train_records, cache)
    test_samples = records_to_samples(test_records, cache)
    started = time.perf_counter()
    model_cfg = replace(cfg.model, n_players=cfg.n_players)
    model, _history = gtnn.train(train_samples, cfg.train, model_cfg=model_cfg)
    elapsed = time.perf_counter() - started
    kappa = gtnn.evaluate(model, test_samples, cfg.eta)
    mse = gtnn.mean_loss(model, test_samples)
    return SweepPoint(q=q, kappa=kappa, mean_test_mse=mse,
                      train_seconds=elapsed), model


_SWEEP_ERRORS = (
    game.GameError, GrammarError, gtnn.GtnnError, ParseError, HarnessError,
    np.linalg.LinAlgError,
)


def run_sweep(cfg: ExperimentConfig, out_csv: str | None = None) -> list[SweepPoint]:
    """One training per grid point; per-point failures yield NaN rows and the
    sweep continues.  CSV output is append-only with a stable schema."""
    cache = GraphCache(cfg)
    points: list[SweepPoint] = []
    for q in cfg.q_grid:
        try:
            point, _model = run_point(cfg, q, cache)
        except _SWEEP_ERRORS:
            point = SweepPoint(q=q, kappa=float("nan"),
                               mean_test_mse=float("nan"),
                               train_seconds=float("nan"))
        points.append(point)
        if out_csv is not None:
            append_sweep_csv(out_csv, [point])
    return points


def append_sweep_csv(path: str, points) -> None:
    new_file = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a") as fh:
        if new_file:
            fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for p in points:
            fh.write(f"{p.q},{p.kappa},{p.mean_test_mse},{p.train_seconds}\n")


# ---------------------------------------------------------------------------
# Forward pipeline: grammar sample -> kinematics -> tracker -> merged string
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndToEndResult:
    letters: tuple[str, ...]                 # raw grammar sample
    reference: tuple[str, ...]               # post-merge form of the sample
    schedules: tuple[tuple[str, ...], ...]   # per-target velocity terminals
    tracks: dict
    merged_velocity: tuple[str, ...]
    merged_letters: tuple[str, ...] | None   # None if a symbol is unmapped


def _runs(seq):
    runs = []
    for sym in seq:
        if runs and runs[-1][0] == sym:
            runs[-1][1] += 1
        else:
            runs.append([sym, 1])
    return [(sym, count) for sym, count in runs]


def end_to_end_forward(
    intent: IntentModel,
    cfg: ExperimentConfig,
    seed: int,
    process_noise_std: float = 0.0,
    obs_noise_std: float = 0.0,
    n_targets: int | None = None,
) -> EndToEndResult:
    """Sample a string, realize it as hierarchical per-target velocity
    schedules (target j executes the first j+1 runs, the last target all of
    them), push through simulation, observation, and tracking, then encode and
    merge back into a symbol string."""
    n = cfg.n_players if n_targets is None else n_targets
    letters = _sample_string(
        intent.grammar, seed, cfg.max_generation_steps, cfg.generation_retry_cap
    )
    dir_map = intent.spec.direction_map
    missing = [sym for sym in letters if sym not in dir_map]
    if missing:
        raise HarnessError(f"letters {missing} have no direction mapping")
    velocity_letters = tuple(dir_map[sym] for sym in letters)
    reference = metaparse.merge_tracks([velocity_letters])

    runs = _runs(velocity_letters)
    m = len(runs)
    horizon = len(velocity_letters)
    schedules_syms: list[tuple[str, ...]] = []
    for j in range(n):
        take = m if j == n - 1 else min(j + 1, m)
        seq: list[str] = []
        for sym, count in runs[:take]:
            seq.extend([sym] * count)
        seq.extend([kinematics.ZERO_TERMINAL] * (horizon - len(seq)))
        schedules_syms.append(tuple(seq))

    tracks = {}
    all_estimates = []
    for j, schedule_syms in enumerate(schedules_syms):
        schedule = [
            kinematics.direction_vector(sym) * cfg.speed for sym in schedule_syms
        ]
        states = kinematics.simulate_track(
            schedule, process_noise_std, cfg.dt, seed=seed * 1000 + 7 * j
        )
        tracks[j] = states
        obs = kinematics.observe(states, obs_noise_std, seed=seed * 1000 + 7 * j + 1)
        estimates = kinematics.kalman_filter(obs, KalmanConfig(dt=cfg.dt))
        all_estimates.append(estimates[1:])  # estimate k tracks schedule[k-1]
    frames = [
        MultiTargetFrame(estimates=tuple(per_target[k] for per_target in all_estimates))
        for k in range(horizon)
    ]
    sequences = metaparse.encode(frames, cfg.zero_threshold)
    merged_velocity = metaparse.merge_tracks(sequences)

    inverse = {v: k for k, v in dir_map.items()}
    merged_letters: tuple[str, ...] | None
    if all(sym in inverse for sym in merged_velocity):
        merged_letters = tuple(inverse[sym] for sym in merged_velocity)
    else:
        merged_letters = None
    return EndToEndResult(
        letters=letters,
        reference=reference,
        schedules=tuple(schedules_syms),
        tracks=tracks,
        merged_velocity=merged_velocity,
        merged_letters=merged_letters,
    )
