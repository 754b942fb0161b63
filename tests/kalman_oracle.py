"""The per-step Kalman recursion, the reference that `kalman_filter` is
compared against: each step predicts and updates mean and covariance
together, where `kalman_filter` reads the covariance and gain of each step
from a table shared by every track under one config."""

from __future__ import annotations

import numpy as np

from groupintent.kinematics import KalmanConfig, TrackEstimate, _check_pd


def kalman_predict(mean, cov, f, q):
    mean = f @ mean
    cov = f @ cov @ f.T + q
    return mean, (cov + cov.T) / 2.0


def kalman_update(mean, cov, y, h, r):
    innovation = y - h @ mean
    s = h @ cov @ h.T + r
    gain = np.linalg.solve(s.T, (cov @ h.T).T).T
    mean = mean + gain @ innovation
    joseph = np.eye(cov.shape[0]) - gain @ h
    cov = joseph @ cov @ joseph.T + gain @ r @ gain.T
    return mean, (cov + cov.T) / 2.0


def kalman_filter_per_step(observations, params: KalmanConfig) -> list[TrackEstimate]:
    """Standard predict/update recursion; the estimate is the posterior mean."""
    obs = list(observations)
    if not obs:
        return []
    _check_pd(params.obs_cov(), "observation covariance")
    _check_pd(params.initial_cov_scale * np.eye(4), "initial covariance")
    f = params.transition()
    q = params.process_cov()
    r = params.obs_cov()
    h = np.eye(4)
    mean = obs[0].y.copy()
    cov = params.initial_cov_scale * np.eye(4)
    estimates = [TrackEstimate(mean=mean, covariance=cov, timestep=0)]
    for k, ob in enumerate(obs[1:], start=1):
        mean, cov = kalman_predict(mean, cov, f, q)
        mean, cov = kalman_update(mean, cov, ob.y, h, r)
        estimates.append(TrackEstimate(mean=mean, covariance=cov, timestep=k))
    return estimates
