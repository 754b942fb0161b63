import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupintent import kinematics
from groupintent.kinematics import (
    KalmanConfig,
    KinematicsError,
    TrackEstimate,
    VELOCITY_TERMINALS,
    direction_vector,
    kalman_filter,
    observe,
    quantize_velocity,
    simulate_track,
)
from kalman_oracle import kalman_filter_per_step, kalman_predict, kalman_update


# --- simulate_track ---------------------------------------------------------


def test_noiseless_single_step():
    states = simulate_track([(1.0, 0.0)], 0.0, dt=1.0, seed=0)
    assert len(states) == 2
    assert states[1].as_vector() == pytest.approx([1.0, 0.0, 1.0, 0.0])


def test_piecewise_linear_two_segment_path():
    angle = np.deg2rad(60.0)
    schedule = [(1.0, 0.0)] * 3 + [(np.cos(angle), np.sin(angle))] * 3
    states = simulate_track(schedule, 0.0, dt=1.0, seed=0)
    # First leg runs along the x axis, second leg leaves it at 60 degrees.
    assert states[3].as_vector() == pytest.approx([3.0, 0.0, 1.0, 0.0])
    expected_end = np.array([3.0 + 3 * np.cos(angle), 3 * np.sin(angle)])
    assert np.allclose([states[6].p1, states[6].p2], expected_end)
    assert states[6].v2 == pytest.approx(np.sin(angle))


def test_fixed_seed_bitwise_identical():
    a = simulate_track([(1.0, 0.0)] * 5, 0.1, dt=0.5, seed=42)
    b = simulate_track([(1.0, 0.0)] * 5, 0.1, dt=0.5, seed=42)
    assert all(
        tuple(x.as_vector()) == tuple(y.as_vector()) for x, y in zip(a, b)
    )


def test_empty_schedule_rejected():
    with pytest.raises(KinematicsError):
        simulate_track([], 0.0, dt=1.0, seed=0)


def test_bad_dt_rejected():
    with pytest.raises(KinematicsError):
        simulate_track([(1.0, 0.0)], 0.0, dt=0.0, seed=0)


# --- observe ----------------------------------------------------------------


def test_zero_noise_observation_identity():
    states = simulate_track([(1.0, 0.0)] * 4, 0.0, dt=1.0, seed=0)
    obs = observe(states, 0.0, seed=1)
    for s, o in zip(states, obs):
        assert np.allclose(o.y, s.as_vector())


def test_observation_noise_std_calibrated():
    states = simulate_track([(0.0, 0.0)] * 10_000, 0.0, dt=1.0, seed=0)
    obs = observe(states, 1.0, seed=3)
    noise = np.stack([o.y for o in obs]) - np.stack([s.as_vector() for s in states])
    stds = noise.std(axis=0)
    assert np.all(np.abs(stds - 1.0) < 0.05)


def test_observe_empty_input():
    assert observe([], 1.0, seed=0) == []


# --- kalman_filter ----------------------------------------------------------


def test_degenerate_noise_limit_tracks_truth():
    schedule = [(1.0, 0.0)] * 5 + [(0.0, 1.0)] * 10
    states = simulate_track(schedule, 0.0, dt=1.0, seed=0)
    obs = observe(states, 0.0, seed=0)
    estimates = kalman_filter(obs, KalmanConfig(obs_noise_std=1e-6))
    errors = [
        np.abs(e.mean - s.as_vector()).max()
        for s, e in zip(states[1:], estimates[1:])
    ]
    # Exact on the first constant-velocity leg; the commanded velocity jump
    # decays geometrically and the estimate reconverges to the truth.
    assert max(errors[:5]) < 1e-9
    assert all(b < a for a, b in zip(errors[5:10], errors[6:11]))
    assert errors[-1] < 1e-4


def test_scalar_riccati_two_steps():
    # 1-D constant model via the primitives: F=1, Q=q, H=1, R=r.
    f = np.array([[1.0]])
    q = np.array([[0.5]])
    h = np.array([[1.0]])
    r = np.array([[2.0]])
    mean, cov = np.array([0.0]), np.array([[1.0]])
    for y in (1.0, 2.0):
        mean, cov = kalman_predict(mean, cov, f, q)
        mean, cov = kalman_update(mean, cov, np.array([y]), h, r)
    # Hand Riccati recursion: P -> P+q -> ((P+q) r)/(P+q+r), twice.
    p = 1.0
    for _ in range(2):
        p = p + 0.5
        p = p * 2.0 / (p + 2.0)
    assert cov[0, 0] == pytest.approx(p, rel=1e-12)


def test_covariance_stays_symmetric_psd_and_bounded():
    states = simulate_track([(1.0, 0.0)] * 1000, 0.2, dt=1.0, seed=5)
    obs = observe(states, 0.5, seed=6)
    estimates = kalman_filter(obs, KalmanConfig(obs_noise_std=0.5))
    for e in estimates:
        assert np.isfinite(np.trace(e.covariance))
        assert np.abs(e.covariance - e.covariance.T).max() <= 1e-9
        assert np.linalg.eigvalsh(e.covariance).min() >= -1e-9


def test_nonpositive_tracker_noise_rejected():
    with pytest.raises(KinematicsError):
        KalmanConfig(obs_noise_std=0.0)
    with pytest.raises(KinematicsError):
        KalmanConfig(process_noise_std=-1.0)


def test_track_estimate_validates_covariance():
    with pytest.raises(KinematicsError):
        TrackEstimate(mean=np.zeros(4), covariance=np.triu(np.ones((4, 4))), timestep=0)


# --- quantize_velocity ------------------------------------------------------


def test_zero_vector_quantizes_to_zero_symbol():
    assert quantize_velocity([0.0, 0.0]) == "0"


def test_east_quantizes_to_first_direction():
    assert quantize_velocity([5.0, 0.0]) == "l1"


def test_antipodal_symmetry_example():
    assert quantize_velocity([-5.0, 0.0]) == "-l1"


def test_nearest_direction_search():
    # 50 degrees sits closer to the 45-degree direction than to 0 or 90.
    v = np.array([np.cos(np.deg2rad(50)), np.sin(np.deg2rad(50))])
    assert quantize_velocity(v) == "l2"


def test_below_threshold_is_zero():
    assert quantize_velocity([0.2, 0.0], zero_threshold=0.25) == "0"
    assert quantize_velocity([0.3, 0.0], zero_threshold=0.25) == "l1"


@given(st.floats(min_value=0.3, max_value=10.0),
       st.floats(min_value=0.0, max_value=2 * np.pi))
@settings(max_examples=200, deadline=None)
def test_quantize_antipodal_property(speed, angle):
    v = speed * np.array([np.cos(angle), np.sin(angle)])
    sym = quantize_velocity(v)
    neg = quantize_velocity(-v)
    assert neg == ("-" + sym if not sym.startswith("-") else sym[1:])


def test_direction_vectors_unit_norm():
    for name in VELOCITY_TERMINALS:
        assert np.linalg.norm(direction_vector(name)) == pytest.approx(1.0)


# --- zero-noise round trip --------------------------------------------------


def test_zero_noise_round_trip_recovers_terminals():
    terminals = ["l1"] * 3 + ["l4"] * 3 + ["-l2"] * 3
    schedule = [direction_vector(t) for t in terminals]
    states = simulate_track(schedule, 0.0, dt=1.0, seed=0)
    obs = observe(states, 0.0, seed=0)
    estimates = kalman_filter(obs, KalmanConfig())
    recovered = [quantize_velocity(e.velocity) for e in estimates[1:]]
    assert recovered == terminals


# --- shared covariance/gain table -------------------------------------------


def _random_track(rng, length):
    terminals = rng.choice(list(VELOCITY_TERMINALS) + ["0"], size=length)
    schedule = [direction_vector(t) * rng.uniform(0.5, 2.0) for t in terminals]
    states = simulate_track(schedule, float(rng.choice([0.0, 0.1])), dt=1.0,
                            seed=int(rng.integers(1 << 30)))
    return observe(states, float(rng.choice([0.0, 0.05])),
                   seed=int(rng.integers(1 << 30)))


def _assert_bitwise_equal(estimates, expected):
    assert len(estimates) == len(expected)
    for got, want in zip(estimates, expected):
        assert got.timestep == want.timestep
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.covariance.tobytes() == want.covariance.tobytes()


def test_filter_matches_per_step_oracle_bitwise():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        cfg = KalmanConfig(dt=float(rng.uniform(0.1, 2.0)),
                           process_noise_std=float(rng.uniform(0.01, 3.0)),
                           obs_noise_std=float(rng.uniform(0.01, 2.0)),
                           initial_cov_scale=float(rng.uniform(0.1, 5.0)))
        for length in rng.integers(1, 40, size=2):
            obs = _random_track(rng, int(length))
            _assert_bitwise_equal(kalman_filter(obs, cfg),
                                  kalman_filter_per_step(obs, cfg))


def test_gain_table_extends_for_a_longer_track_and_serves_prefixes():
    rng = np.random.default_rng(7)
    cfg = KalmanConfig(dt=0.7, process_noise_std=0.3, obs_noise_std=0.11)
    kinematics._gain_tables.pop(cfg, None)
    short, long_, shorter = (_random_track(rng, n) for n in (5, 30, 12))
    _assert_bitwise_equal(kalman_filter(short, cfg), kalman_filter_per_step(short, cfg))
    assert len(kinematics._gain_tables[cfg][0]) == 6
    _assert_bitwise_equal(kalman_filter(long_, cfg), kalman_filter_per_step(long_, cfg))
    table = kinematics._gain_tables[cfg]
    assert len(table[0]) == 31
    _assert_bitwise_equal(kalman_filter(shorter, cfg),
                          kalman_filter_per_step(shorter, cfg))
    assert kinematics._gain_tables[cfg] is table


def test_gain_table_and_estimates_are_read_only():
    cfg = KalmanConfig(dt=0.9, obs_noise_std=0.2)
    estimates = kalman_filter(_random_track(np.random.default_rng(1), 8), cfg)
    for arr in kinematics._gain_tables[cfg]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0
    for e in estimates:
        assert not e.covariance.flags.writeable
        assert not e.mean.flags.writeable


def test_underflowing_observation_covariance_rejected():
    # obs_noise_std**2 underflows to 0, so R is singular.
    obs = _random_track(np.random.default_rng(3), 4)
    with pytest.raises(KinematicsError, match="observation covariance"):
        kalman_filter(obs, KalmanConfig(obs_noise_std=1e-200))
