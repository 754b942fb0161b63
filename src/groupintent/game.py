"""Cooperative game layer: characteristic functions, solution concepts, and
the mapping from payoff allocations to production-rule probabilities.

Coalitions are represented as integer bitmasks: bit ``i`` set means player
``i`` participates.  A game's value table is a dense array of length ``2**n``
indexed by mask, with the empty coalition pinned to zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lp import LPInfeasibleError, solve_lp

Coalition = int

_FIX_TOL = 1e-9  # tightness tolerance when fixing coalitions in the nucleolus LPs
_ZERO_SNAP = 1e-10  # payoff magnitudes below this are snapped to exact zero


class GameError(Exception):
    pass


class InfeasibleGameError(GameError):
    """The nonnegative efficient set is empty (or an LP stage failed)."""


class SingularCovarianceError(GameError):
    """A sensor noise covariance is not symmetric positive-definite."""


def coalition_members(mask: Coalition, n_players: int) -> tuple[int, ...]:
    return tuple(i for i in range(n_players) if mask >> i & 1)


@dataclass(frozen=True, eq=False)
class CharacteristicFunction:
    """Dense coalition-value table over all 2**n bitmask coalitions."""

    n_players: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if self.n_players < 1:
            raise ValueError("need at least one player")
        if vals.shape != (2**self.n_players,):
            raise ValueError(
                f"value table must have length {2**self.n_players}, got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("coalition values must be finite")
        if abs(vals[0]) > 1e-12:
            raise ValueError("empty coalition must have value 0")
        vals = vals.copy()
        vals[0] = 0.0
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def value(self, mask: Coalition) -> float:
        return float(self.values[mask])

    @property
    def grand_value(self) -> float:
        return float(self.values[-1])

    def to_json(self) -> str:
        return json.dumps(
            {"n_players": self.n_players, "values": [float(v) for v in self.values]}
        )

    @classmethod
    def from_json(cls, text: str) -> "CharacteristicFunction":
        obj = json.loads(text)
        return cls(n_players=int(obj["n_players"]), values=np.array(obj["values"]))


@dataclass(frozen=True)
class SensorSpec:
    """Linear-Gaussian sensor: y = H @ zeta + noise, noise ~ N(0, R), repeated
    over `measurements` independent looks."""

    H: np.ndarray
    R: np.ndarray
    measurements: int = 1

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.H, dtype=float))
        r = np.atleast_2d(np.asarray(self.R, dtype=float))
        if self.measurements < 1:
            raise ValueError("measurement count must be a positive integer")
        if r.shape[0] != r.shape[1] or r.shape[0] != h.shape[0]:
            raise ValueError("R must be square and match the rows of H")
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "R", r)

    def information_matrix(self) -> np.ndarray:
        if not np.allclose(self.R, self.R.T, atol=1e-9):
            raise SingularCovarianceError("R must be symmetric")
        try:
            chol = np.linalg.cholesky(self.R)
        except np.linalg.LinAlgError as exc:
            raise SingularCovarianceError("R is singular or not positive-definite") from exc
        hw = np.linalg.solve(chol, self.H)  # R^{-1/2} H
        return self.measurements * (hw.T @ hw)


@lru_cache(maxsize=None)
def coalition_matrix(n_players: int) -> np.ndarray:
    """(2**n, n) 0/1 matrix: row `mask`, column `i` is bit i of mask.  Built
    once per player count and shared, so it is read-only."""
    masks = np.arange(2**n_players)
    m = ((masks[:, None] >> np.arange(n_players)[None, :]) & 1).astype(float)
    m.flags.writeable = False
    return m


def fisher_charfn(sensors: list[SensorSpec]) -> CharacteristicFunction:
    """Fisher-information game: u(S) is the trace of the summed per-sensor
    information matrices of the members of S.  Additive by construction."""
    if not sensors:
        raise ValueError("need at least one sensor")
    dims = {s.H.shape[1] for s in sensors}
    if len(dims) != 1:
        raise ValueError(f"sensors disagree on parameter dimension: {sorted(dims)}")
    traces = np.array([np.trace(s.information_matrix()) for s in sensors])
    values = coalition_matrix(len(sensors)) @ traces
    return CharacteristicFunction(n_players=len(sensors), values=values)


def _payoff_sums(pi: np.ndarray, n_players: int) -> np.ndarray:
    """Sum of pi over every coalition mask."""
    sums = np.zeros(2**n_players)
    for i in range(n_players):
        bit = 1 << i
        idx = np.nonzero(np.arange(2**n_players) & bit)[0]
        sums[idx] += pi[i]
    return sums


def is_in_core(u: CharacteristicFunction, pi: np.ndarray, tol: float = 1e-9) -> bool:
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (u.n_players,):
        raise ValueError("allocation length must equal the player count")
    if abs(pi.sum() - u.grand_value) > tol:
        return False
    sums = _payoff_sums(pi, u.n_players)
    return bool(np.all(sums >= u.values - tol))


def excess_vector(u: CharacteristicFunction, pi: np.ndarray) -> np.ndarray:
    """All 2**n excesses u(S) - pi(S), sorted non-increasing."""
    pi = np.asarray(pi, dtype=float)
    excesses = u.values - _payoff_sums(pi, u.n_players)
    return np.sort(excesses)[::-1]


def is_null_player(u: CharacteristicFunction, i: int, tol: float = 1e-9) -> bool:
    """True iff adding player i never changes any coalition's value."""
    if not 0 <= i < u.n_players:
        raise ValueError("player index out of range")
    bit = 1 << i
    masks = np.nonzero((np.arange(2**u.n_players) & bit) == 0)[0]
    return bool(np.all(np.abs(u.values[masks | bit] - u.values[masks]) <= tol))


def is_modular(u: CharacteristicFunction, tol: float = 1e-9) -> bool:
    """True iff every player's marginal contribution is context-independent."""
    for i in range(u.n_players):
        bit = 1 << i
        masks = np.nonzero((np.arange(2**u.n_players) & bit) == 0)[0]
        marginals = u.values[masks | bit] - u.values[masks]
        if marginals.max() - marginals.min() > tol:
            return False
    return True


def shapley(u: CharacteristicFunction) -> np.ndarray:
    """Exact Shapley value by exhaustive subset enumeration (n <= 20)."""
    n = u.n_players
    if n > 20:
        raise ValueError(f"exhaustive Shapley limited to 20 players, got {n}")
    fact = [math.factorial(k) for k in range(n + 1)]
    weight_by_size = np.array(
        [fact[s] * fact[n - s - 1] / fact[n] for s in range(n)]
    )
    masks = np.arange(2**n)
    sizes = np.zeros(2**n, dtype=int)
    for i in range(n):
        sizes += (masks >> i) & 1
    phi = np.zeros(n)
    for i in range(n):
        bit = 1 << i
        without = np.nonzero((masks & bit) == 0)[0]
        marginals = u.values[without | bit] - u.values[without]
        phi[i] = float(weight_by_size[sizes[without]] @ marginals)
    return phi


def _snap(pi: np.ndarray) -> np.ndarray:
    out = pi.copy()
    out[np.abs(out) < _ZERO_SNAP] = 0.0
    return out


def _nonnegative_efficient(pi: np.ndarray, grand_value: float) -> np.ndarray:
    """Snap a solver's vertex, then undo its tolerance-sized negative payoffs:
    clip them to zero and rescale the rest back to sum(pi) = u(N)."""
    out = _snap(pi)
    if np.all(out >= 0.0):
        return out
    out = np.maximum(out, 0.0)
    total = out.sum()
    if total > 0.0:
        return out * (grand_value / total)
    return np.full(len(out), grand_value / len(out))


def nucleolus(u: CharacteristicFunction) -> np.ndarray:
    """Nucleolus over the nonnegative efficient set.

    An additive game with nonnegative singletons has its singleton vector
    u({i}) as nucleolus (Schmeidler 1969): that vector leaves every coalition
    an excess of 0, and any other efficient allocation pays some player i
    less than u({i}), which leaves {i} a positive excess.  Every other game
    goes through the sequential LPs of `_lp_nucleolus`.
    """
    n = u.n_players
    if u.grand_value < -1e-12:
        raise InfeasibleGameError(
            "no nonnegative efficient allocation exists: u(N) = "
            f"{u.grand_value:.6g} < 0 conflicts with pi >= 0 and sum(pi) = u(N)"
        )
    if n == 1:
        return np.array([u.grand_value])
    singletons = u.values[1 << np.arange(n)]
    if np.all(singletons >= 0.0) and is_modular(u):
        return _snap(singletons)
    return _lp_nucleolus(u)


def _lp_nucleolus(u: CharacteristicFunction) -> np.ndarray:
    """Nucleolus by sequential LPs, for a game with u(N) >= 0 and n >= 2.

    Stage LP: minimize the maximum excess over not-yet-fixed proper
    coalitions, subject to efficiency, nonnegativity, and the excesses fixed
    at earlier stages.  After each stage, a coalition is fixed iff its excess
    is pinned at the stage optimum over the entire optimal face (checked with
    one auxiliary LP per candidate), then the face is tested for uniqueness.
    """
    n = u.n_players
    size = 2**n
    proper = [m for m in range(1, size - 1)]
    member_rows = coalition_matrix(n)  # row mask -> indicator over players

    # Variable layout: [pi (n), eps_pos, eps_neg]; eps = eps_pos - eps_neg.
    n_var = n + 2
    fixed: dict[int, float] = {}

    def stage_lp(unfixed: list[int]):
        c = np.zeros(n_var)
        c[n], c[n + 1] = 1.0, -1.0
        a_ub = np.zeros((len(unfixed), n_var))
        b_ub = np.zeros(len(unfixed))
        for r, mask in enumerate(unfixed):
            a_ub[r, :n] = -member_rows[mask]
            a_ub[r, n], a_ub[r, n + 1] = -1.0, 1.0
            b_ub[r] = -u.values[mask]
        a_eq = [np.concatenate([np.ones(n), [0.0, 0.0]])]
        b_eq = [u.grand_value]
        for mask, exc in fixed.items():
            row = np.zeros(n_var)
            row[:n] = member_rows[mask]
            a_eq.append(row)
            b_eq.append(u.values[mask] - exc)
        return c, a_ub, b_ub, np.array(a_eq), np.array(b_eq)

    def face_lp(objective: np.ndarray, unfixed: list[int], eps_value: float):
        """Optimize `objective` over the optimal face of the last stage."""
        _, a_ub, b_ub, a_eq, b_eq = stage_lp(unfixed)
        # Pin eps at its optimum by an extra equality.
        eps_row = np.zeros(n_var)
        eps_row[n], eps_row[n + 1] = 1.0, -1.0
        a_eq = np.vstack([a_eq, eps_row])
        b_eq = np.append(b_eq, eps_value)
        res = solve_lp(objective, a_ub, b_ub, a_eq, b_eq)
        return res

    unfixed = list(proper)
    pi = np.full(n, u.grand_value / n)
    for _ in range(size):
        if not unfixed:
            break
        c, a_ub, b_ub, a_eq, b_eq = stage_lp(unfixed)
        try:
            res = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        except LPInfeasibleError as exc:
            raise InfeasibleGameError(
                "stage LP infeasible under efficiency + nonnegativity + "
                f"{len(fixed)} fixed coalition constraints"
            ) from exc
        eps = res.value
        pi = res.x[:n]

        # Fix coalitions whose excess equals eps across the whole optimal face.
        newly_fixed = []
        for mask in unfixed:
            obj = np.zeros(n_var)
            obj[:n] = -member_rows[mask]  # maximize pi(S)
            best = face_lp(obj, unfixed, eps)
            max_pi_s = -best.value
            if max_pi_s <= u.values[mask] - eps + _FIX_TOL:
                newly_fixed.append(mask)
        if not newly_fixed:
            # Numerical stall; accept the current vertex.
            break
        for mask in newly_fixed:
            fixed[mask] = eps
            unfixed.remove(mask)

        # Uniqueness probe: min and max of every coordinate over the face.
        determined = True
        probe = np.zeros(n)
        for i in range(n):
            obj = np.zeros(n_var)
            obj[i] = 1.0
            lo = face_lp(obj, unfixed, eps).value
            hi = -face_lp(-obj, unfixed, eps).value
            if hi - lo > 1e-9:
                determined = False
                break
            probe[i] = (lo + hi) / 2.0
        if determined:
            return _nonnegative_efficient(probe, u.grand_value)
    return _nonnegative_efficient(pi, u.grand_value)


@dataclass(frozen=True)
class RuleProbabilities:
    """Per-rule probabilities plus the rules living in zero-mass LHS groups."""

    probs: dict[str, float]
    unreachable: frozenset[str] = field(default_factory=frozenset)


def rule_probabilities(pi: np.ndarray, assignment: dict[str, frozenset[int] | set[int]],
                       grammar) -> RuleProbabilities:
    """Turn an allocation into production-rule probabilities.

    Each rule's weight is the summed payoff of its assigned players; weights
    are normalized within each left-hand-side group.  Groups with zero total
    mass get probability 0 on every rule and are reported as unreachable.
    """
    pi = np.asarray(pi, dtype=float)
    rule_ids = [r.id for r in grammar.rules]
    if set(assignment) != set(rule_ids) or len(rule_ids) != len(set(rule_ids)):
        missing = set(rule_ids) - set(assignment)
        extra = set(assignment) - set(rule_ids)
        raise ValueError(
            f"assignment must cover every rule exactly once (missing={sorted(missing)}, "
            f"extra={sorted(extra)})"
        )
    assigned_players = set()
    for players in assignment.values():
        assigned_players.update(players)
    if assigned_players != set(range(len(pi))):
        raise ValueError("every player must appear in at least one rule's assignment")

    probs: dict[str, float] = {}
    unreachable: set[str] = set()
    for _, rules in grammar.lhs_groups().items():
        weights = {r.id: float(sum(pi[j] for j in assignment[r.id])) for r in rules}
        total = sum(weights.values())
        if total <= 0.0:
            for r in rules:
                probs[r.id] = 0.0
                unreachable.add(r.id)
        else:
            for r in rules:
                probs[r.id] = weights[r.id] / total
    return RuleProbabilities(probs=probs, unreachable=frozenset(unreachable))
