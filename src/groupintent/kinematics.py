"""Target kinematics: velocity-commanded simulation, noisy observation, a
linear-Gaussian Kalman tracker, and quantization of velocities onto the
terminal alphabet.

All functions are pure; randomness is owned per call through seed arguments,
so concurrent use only requires distinct seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Canonical unit directions at 0, 45, 90, 135 degrees; negatives are antipodes.
_SQ2 = np.sqrt(2.0) / 2.0
DIRECTION_VECTORS: dict[str, np.ndarray] = {
    "l1": np.array([1.0, 0.0]),
    "l2": np.array([_SQ2, _SQ2]),
    "l3": np.array([0.0, 1.0]),
    "l4": np.array([-_SQ2, _SQ2]),
}
VELOCITY_TERMINALS: tuple[str, ...] = (
    "l1", "l2", "l3", "l4", "-l1", "-l2", "-l3", "-l4",
)
ZERO_TERMINAL = "0"
DEFAULT_ZERO_THRESHOLD = 0.25


class KinematicsError(Exception):
    pass


def direction_vector(terminal: str) -> np.ndarray:
    if terminal == ZERO_TERMINAL:
        return np.zeros(2)
    if terminal.startswith("-"):
        return -DIRECTION_VECTORS[terminal[1:]]
    return DIRECTION_VECTORS[terminal]


@dataclass(frozen=True)
class KinematicState:
    p1: float
    p2: float
    v1: float
    v2: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.p1, self.p2, self.v1, self.v2])):
            raise KinematicsError("state components must be finite")

    def as_vector(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.v1, self.v2])


@dataclass(frozen=True)
class Observation:
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.shape != (4,) or not np.all(np.isfinite(y)):
            raise KinematicsError("observation must be a finite 4-vector")
        y = y.copy()
        y.flags.writeable = False
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class TrackEstimate:
    mean: np.ndarray
    covariance: np.ndarray
    timestep: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.shape != (4,) or cov.shape != (4, 4):
            raise KinematicsError("estimate must be a 4-vector with 4x4 covariance")
        if self.timestep < 0:
            raise KinematicsError("timestep must be nonnegative")
        if np.abs(cov - cov.T).max() > 1e-9:
            raise KinematicsError("covariance must be symmetric within 1e-9")
        if np.any(np.diag(cov) < -1e-12):
            raise KinematicsError("covariance diagonal must be nonnegative")
        for arr in (mean, cov):
            arr.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def velocity(self) -> np.ndarray:
        return self.mean[2:4]


@dataclass(frozen=True)
class MultiTargetFrame:
    """Track estimates of all targets at one timestep.

    The element order carries no meaning; consumers must either be
    permutation-invariant or explicitly equivariant (encode is the latter,
    and the downstream merge restores invariance).
    """

    estimates: tuple[TrackEstimate, ...]

    def __post_init__(self):
        object.__setattr__(self, "estimates", tuple(self.estimates))


def simulate_track(
    velocity_schedule,
    process_noise_std: float,
    dt: float,
    seed: int,
    initial_position=(0.0, 0.0),
) -> list[KinematicState]:
    """Integrate a commanded velocity schedule under a constant-velocity model.

    State k+1 takes its velocity directly from schedule[k] plus Gaussian
    process noise; position integrates that velocity over dt.  Returns the
    initial state followed by one state per schedule entry.
    """
    schedule = [np.asarray(v, dtype=float) for v in velocity_schedule]
    if not schedule:
        raise KinematicsError("velocity schedule must be nonempty")
    if dt <= 0:
        raise KinematicsError("dt must be positive")
    if process_noise_std < 0:
        raise KinematicsError("process noise std must be nonnegative")
    rng = np.random.default_rng(seed)
    pos = np.asarray(initial_position, dtype=float)
    states = [KinematicState(pos[0], pos[1], 0.0, 0.0)]
    for commanded in schedule:
        vel = commanded + process_noise_std * rng.standard_normal(2)
        pos = pos + vel * dt
        states.append(KinematicState(pos[0], pos[1], vel[0], vel[1]))
    return states


def observe(states, obs_noise_std: float, seed: int) -> list[Observation]:
    """y_k = x_k + i.i.d. Gaussian noise on every component."""
    if obs_noise_std < 0:
        raise KinematicsError("observation noise std must be nonnegative")
    rng = np.random.default_rng(seed)
    out = []
    for state in states:
        noise = obs_noise_std * rng.standard_normal(4)
        out.append(Observation(state.as_vector() + noise))
    return out


@dataclass(frozen=True)
class KalmanConfig:
    """Dynamics and noise model assumed by the tracker (not the simulator)."""

    dt: float = 1.0
    process_noise_std: float = 1.0
    obs_noise_std: float = 0.05
    initial_cov_scale: float = 1.0

    def __post_init__(self):
        if self.dt <= 0:
            raise KinematicsError("dt must be positive")
        if self.process_noise_std <= 0 or self.obs_noise_std <= 0:
            raise KinematicsError("tracker noise parameters must be positive-definite")
        if self.initial_cov_scale <= 0:
            raise KinematicsError("initial covariance must be positive-definite")

    def transition(self) -> np.ndarray:
        f = np.eye(4)
        f[0, 2] = self.dt
        f[1, 3] = self.dt
        return f

    def process_cov(self) -> np.ndarray:
        # White-noise-acceleration covariance of the 2-D constant-velocity model.
        q = self.process_noise_std**2
        dt = self.dt
        blk = q * np.array([[dt**4 / 4, dt**3 / 2], [dt**3 / 2, dt**2]])
        out = np.zeros((4, 4))
        out[np.ix_([0, 2], [0, 2])] = blk
        out[np.ix_([1, 3], [1, 3])] = blk
        return out

    def obs_cov(self) -> np.ndarray:
        return self.obs_noise_std**2 * np.eye(4)


# KalmanConfig -> (covariances, transposed gains), both (T, 4, 4) and
# read-only: row k holds the posterior covariance and the transposed gain of
# step k (gain row 0 is unused).  Neither depends on the observations
# (Anderson & Moore 1979), so every track filtered under a config shares one
# table, extended when a longer track arrives; a shorter track reads a
# prefix, so a table holds as many steps as the longest track filtered under
# its config, and past 128 configs the cache starts over.  A gain is kept
# transposed because the solve returns it in column-major order: `row.T`
# restores that layout, and with it the summation order of the
# gain-times-innovation product.
_gain_tables: dict[KalmanConfig, tuple[np.ndarray, np.ndarray]] = {}


def _gain_table(params: KalmanConfig, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The covariance and transposed-gain rows of at least `steps` steps."""
    table = _gain_tables.get(params)
    if table is not None and len(table[0]) >= steps:
        return table
    if table is None:
        _check_pd(params.obs_cov(), "observation covariance")
        _check_pd(params.initial_cov_scale * np.eye(4), "initial covariance")
        covs = [params.initial_cov_scale * np.eye(4)]
        gains_t = [np.zeros((4, 4))]
        if len(_gain_tables) > 128:
            _gain_tables.clear()
    else:
        covs, gains_t = list(table[0]), list(table[1])
    f = params.transition()
    q = params.process_cov()
    r = params.obs_cov()
    h = np.eye(4)
    cov = covs[-1]
    while len(covs) < steps:
        cov = f @ cov @ f.T + q
        cov = (cov + cov.T) / 2.0
        s = h @ cov @ h.T + r
        gain = np.linalg.solve(s.T, (cov @ h.T).T).T
        joseph = np.eye(4) - gain @ h
        cov = joseph @ cov @ joseph.T + gain @ r @ gain.T
        cov = (cov + cov.T) / 2.0
        covs.append(cov)
        gains_t.append(gain.T)
    table = (np.stack(covs), np.stack(gains_t))
    for arr in table:
        arr.flags.writeable = False
    _gain_tables[params] = table
    return table


def kalman_filter(observations, params: KalmanConfig) -> list[TrackEstimate]:
    """Standard predict/update recursion with H = I; the estimate is the
    posterior mean.  The covariance and gain of each step come from the
    config's shared table, so only the mean is computed per track."""
    obs = list(observations)
    if not obs:
        return []
    covs, gains_t = _gain_table(params, len(obs))
    f = params.transition()
    mean = obs[0].y.copy()
    estimates = [TrackEstimate(mean=mean, covariance=covs[0], timestep=0)]
    for k in range(1, len(obs)):
        mean = f @ mean
        mean = mean + gains_t[k].T @ (obs[k].y - mean)
        estimates.append(TrackEstimate(mean=mean, covariance=covs[k], timestep=k))
    return estimates


def _check_pd(mat: np.ndarray, label: str) -> None:
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise KinematicsError(f"{label} is not positive-definite") from exc


# One unit row per VELOCITY_TERMINALS entry, in that order.
_DIRECTIONS = np.stack([direction_vector(name) for name in VELOCITY_TERMINALS])
_DIRECTIONS.flags.writeable = False


def quantize_velocity(v, zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> str:
    """Map a 2-D velocity to the nearest direction terminal, or "0" when the
    speed falls below the threshold.  Antipodal inputs map to negated symbols;
    exact ties resolve to the first terminal in canonical order."""
    v = np.asarray(v, dtype=float)
    speed = float(np.linalg.norm(v))
    if speed < zero_threshold:
        return ZERO_TERMINAL
    sims = _DIRECTIONS @ (v / speed)
    return VELOCITY_TERMINALS[int(np.argmax(sims))]


def tracks_to_csv_rows(tracks: dict[int, list[KinematicState]]) -> list[tuple]:
    """Flatten per-target state sequences into (target_id, k, p1, p2, v1, v2)."""
    rows = []
    for target_id in sorted(tracks):
        for k, state in enumerate(tracks[target_id]):
            rows.append((target_id, k, state.p1, state.p2, state.v1, state.v2))
    return rows
