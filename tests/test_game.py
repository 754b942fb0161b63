import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupintent import game
from groupintent.game import (
    CharacteristicFunction,
    InfeasibleGameError,
    SensorSpec,
    SingularCovarianceError,
    coalition_matrix,
    excess_vector,
    fisher_charfn,
    is_in_core,
    is_modular,
    is_null_player,
    nucleolus,
    rule_probabilities,
    shapley,
)
from groupintent.grammar import triangle_assignment, triangle_grammar
from groupintent.harness import default_config
from groupintent.lp import solve_lp


def cf(values):
    n = int(np.log2(len(values)))
    return CharacteristicFunction(n_players=n, values=np.array(values, dtype=float))


def modular_game(traces):
    return cf(coalition_matrix(len(traces)) @ np.asarray(traces, dtype=float))


def fisher_sensors(traces):
    return [
        SensorSpec(H=np.array([[np.sqrt(t), 0.0]]), R=np.array([[1.0]]))
        for t in traces
    ]


# --- construction -----------------------------------------------------------


def test_empty_coalition_must_be_zero():
    with pytest.raises(ValueError):
        cf([1.0, 0.0, 0.0, 0.0])


def test_values_must_be_finite():
    with pytest.raises(ValueError):
        cf([0.0, np.inf, 0.0, 1.0])


def test_json_round_trip():
    u = cf([0, 1, 2, 5])
    back = CharacteristicFunction.from_json(u.to_json())
    assert back.n_players == 2
    assert np.allclose(back.values, u.values)


# --- fisher_charfn ----------------------------------------------------------


def test_fisher_identity_sensor_trace():
    u = fisher_charfn([SensorSpec(H=np.eye(2), R=np.eye(2))])
    assert u.value(0b1) == pytest.approx(2.0)


def test_fisher_zero_sensor_is_null_everywhere():
    sensors = fisher_sensors([2.0, 3.0]) + [SensorSpec(H=np.zeros((1, 2)), R=np.eye(1))]
    u = fisher_charfn(sensors)
    for mask in range(4):
        assert u.value(mask | 0b100) == pytest.approx(u.value(mask))


def test_fisher_sums_member_traces():
    u = fisher_charfn(fisher_sensors([2.0, 3.0, 5.0]))
    assert u.grand_value == pytest.approx(10.0)
    assert u.value(0b011) == pytest.approx(5.0)
    assert u.value(0b101) == pytest.approx(7.0)


def test_fisher_singular_covariance_rejected():
    with pytest.raises(SingularCovarianceError):
        fisher_charfn([SensorSpec(H=np.eye(2), R=np.zeros((2, 2)))])


def test_fisher_measurement_count_scales():
    u1 = fisher_charfn([SensorSpec(H=np.eye(2), R=np.eye(2), measurements=3)])
    assert u1.value(0b1) == pytest.approx(6.0)


# --- core / excess ----------------------------------------------------------


def test_modular_allocation_in_core():
    u = modular_game([1.0, 2.0, 4.0])
    assert is_in_core(u, np.array([1.0, 2.0, 4.0]))


def test_core_membership_three_player_veto():
    u = cf([0, 0, 0, 0, 0, 0, 0, 1.0])
    assert is_in_core(u, np.array([1.0, 0.0, 0.0]), tol=1e-9)


def test_core_rejects_inefficient():
    u = cf([0, 0, 0, 0, 0, 0, 0, 1.0])
    assert not is_in_core(u, np.array([0.5, 0.5, 0.5]))


def test_excess_vector_all_zero_for_exact_modular():
    u = modular_game([1.0, 2.0])
    assert np.allclose(excess_vector(u, np.array([1.0, 2.0])), 0.0)


def test_excess_vector_hand_example():
    u = cf([0, 1, 0, 2.0])
    assert np.allclose(excess_vector(u, np.array([1.0, 1.0])), [0, 0, 0, -1])


def test_excess_decreases_when_payoff_grows():
    u = cf([0, 1, 0, 2.0])
    base = u.values - np.array([0.0, 1.0, 1.0, 2.0])  # unsorted excesses
    bumped = u.values - np.array([0.0, 1.1, 1.0, 2.1])
    members_of_0 = [1, 3]
    assert all(bumped[m] < base[m] for m in members_of_0)


# --- nucleolus --------------------------------------------------------------


def test_nucleolus_symmetric_three_player():
    u = cf([0, 0, 0, 0, 0, 0, 0, 1.0])
    assert np.allclose(nucleolus(u), [1 / 3, 1 / 3, 1 / 3], atol=1e-9)


def test_nucleolus_modular_returns_traces():
    u = fisher_charfn(fisher_sensors([2.0, 3.0, 5.0]))
    assert np.allclose(nucleolus(u), [2, 3, 5], atol=1e-8)


def test_nucleolus_efficiency_and_core():
    rng = np.random.default_rng(7)
    for _ in range(10):
        vals = np.concatenate([[0.0], rng.integers(0, 11, size=7).astype(float)])
        vals[-1] = max(vals)  # keep the first LP comfortably feasible
        u = cf(vals)
        pi = nucleolus(u)
        assert pi.sum() == pytest.approx(u.grand_value, abs=1e-8)
        assert np.all(pi >= -1e-12)


def test_nucleolus_infeasible_game():
    with pytest.raises(InfeasibleGameError):
        nucleolus(cf([0, -1, -1, -2.0]))


def test_nucleolus_all_zero_game():
    assert np.allclose(nucleolus(cf([0, 0, 0, 0.0])), 0.0)


def test_nucleolus_two_player_split():
    # u({1})=1, u({2})=0, u(N)=2: excesses balance at pi=(1.5, 0.5).
    u = cf([0, 1, 0, 2.0])
    assert np.allclose(nucleolus(u), [1.5, 0.5], atol=1e-8)


def _counting_lp(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(game, "solve_lp", counted)
    return calls


def test_additive_game_allocates_its_singletons_without_the_lp(monkeypatch):
    rng = np.random.default_rng(5)
    games = [fisher_charfn(fisher_sensors([2.0, 3.0, 5.0])), modular_game([0.0, 0.0, 0.0])]
    games += [modular_game(rng.uniform(0.0, 9.0, size=3)) for _ in range(10)]
    games += [modular_game(rng.integers(0, 4, size=4).astype(float)) for _ in range(5)]
    games += [fisher_charfn(list(spec.sensors)) for spec in default_config().classes]
    calls = _counting_lp(monkeypatch)
    allocations = [nucleolus(u) for u in games]
    assert calls == []
    for u, pi in zip(games, allocations):
        singletons = u.values[1 << np.arange(u.n_players)]
        assert np.array_equal(pi, singletons)
        assert np.allclose(pi, game._lp_nucleolus(u), atol=1e-9)
    assert len(calls) > 0


def test_additive_game_with_a_negative_singleton_uses_the_lp(monkeypatch):
    u = modular_game([-1.0, 2.0, 3.0])
    assert is_modular(u)
    calls = _counting_lp(monkeypatch)
    pi = nucleolus(u)
    assert len(calls) > 0
    assert np.all(pi >= 0.0)
    assert pi.sum() == pytest.approx(u.grand_value, abs=1e-9)
    assert np.array_equal(pi, game._lp_nucleolus(u))


def grid_lexicographic_oracle(u: CharacteristicFunction, step: float = 1e-3):
    """Brute-force lexicographic minimizer over the efficient nonnegative grid.

    Independent of the LP path.  On each p1 slice the maximum proper excess
    is a convex piecewise-linear envelope of affine functions of p2, so its
    grid minimum sits at one of the pairwise line intersections (or a
    boundary); only grid points whose envelope value ties the global minimum
    survive to the full sorted-excess lexicographic comparison.  Excesses of
    the empty and grand coalitions are constant across efficient allocations
    and cannot affect the argmin, so the envelope uses proper coalitions.
    """
    total = u.grand_value
    n_steps = int(round(total / step))
    if n_steps == 0:
        return np.zeros(3)
    proper = np.arange(1, 7)
    membership = np.stack([(proper >> i) & 1 for i in range(3)], axis=1).astype(float)
    # e(S) = u[S] - pi @ member = alpha_S + g1_S * p1 + g2_S * p2 with
    # p3 = total - p1 - p2 substituted in.
    alpha = u.values[proper] - membership[:, 2] * total
    g1 = membership[:, 2] - membership[:, 0]
    g2 = membership[:, 2] - membership[:, 1]

    p1 = np.arange(n_steps + 1) * step          # (n1,)
    p2_max = total - p1
    a_of_p1 = alpha[None, :] + np.outer(p1, g1)  # (n1, 6) intercepts in p2

    def envelope_at(p2_grid):
        # p2_grid: (n1, k) candidate p2 per slice -> envelope values (n1, k)
        vals = a_of_p1[:, None, :] + p2_grid[:, :, None] * g2[None, None, :]
        return vals.max(axis=2)

    # Candidate p2 minimizers per slice: pairwise intersections + boundaries.
    cands = [np.zeros_like(p1), p2_max.copy()]
    for i in range(6):
        for j in range(i + 1, 6):
            if abs(g2[i] - g2[j]) < 1e-12:
                continue
            cross = (a_of_p1[:, j] - a_of_p1[:, i]) / (g2[i] - g2[j])
            cands.append(cross)
    cand = np.stack(cands, axis=1)
    cand = np.clip(cand, 0.0, p2_max[:, None])
    # Snap to the surrounding grid points (the grid min of a convex function
    # is at a neighbor of the continuous min).
    lo_grid = np.floor(cand / step) * step
    hi_grid = np.minimum(lo_grid + step, p2_max[:, None])
    grid_cand = np.concatenate([lo_grid, hi_grid], axis=1)
    env = envelope_at(grid_cand)
    slice_min = env.min(axis=1)
    m1 = slice_min.min()

    # Survivors: per slice, the p2 interval where every affine stays <= m1+tol.
    tol = 1e-7
    survivors = []
    for k in range(n_steps + 1):
        lo, hi = 0.0, p2_max[k]
        ok = True
        for s in range(6):
            a, b = a_of_p1[k, s], g2[s]
            if abs(b) < 1e-15:
                if a > m1 + tol:
                    ok = False
                    break
            elif b > 0:
                hi = min(hi, (m1 + tol - a) / b)
            else:
                lo = max(lo, (m1 + tol - a) / b)
        if not ok or lo > hi + 1e-12:
            continue
        i_lo, i_hi = int(np.ceil(lo / step - 1e-9)), int(np.floor(hi / step + 1e-9))
        if i_hi < i_lo:
            continue
        p2s = np.arange(i_lo, i_hi + 1) * step
        survivors.append(np.stack(
            [np.full_like(p2s, p1[k]), p2s, total - p1[k] - p2s], axis=1
        ))
    pts = np.concatenate(survivors)
    masks_all = np.arange(8)
    member_all = np.stack([(masks_all >> i) & 1 for i in range(3)], axis=1).astype(float)
    excesses = u.values[None, :] - pts @ member_all.T
    # Round before comparing: float dust must not decide lexicographic order.
    sorted_exc = np.round(-np.sort(-excesses, axis=1), 9)
    idx = np.lexsort(sorted_exc[:, ::-1].T)
    return pts[idx[0]]


def test_nucleolus_matches_grid_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        vals = np.concatenate([[0.0], rng.integers(0, 11, size=7).astype(float)])
        u = cf(vals)
        got = nucleolus(u)
        want = grid_lexicographic_oracle(u)
        assert np.allclose(got, want, atol=5e-3)


# --- shapley ----------------------------------------------------------------


def test_shapley_modular_returns_traces():
    u = fisher_charfn(fisher_sensors([2.0, 3.0, 5.0]))
    assert np.allclose(shapley(u), [2, 3, 5], atol=1e-12)


def test_shapley_null_player_zero():
    sensors = fisher_sensors([2.0, 3.0]) + [SensorSpec(H=np.zeros((1, 2)), R=np.eye(1))]
    u = fisher_charfn(sensors)
    assert shapley(u)[2] == pytest.approx(0.0, abs=1e-12)


def test_shapley_two_player_hand_example():
    u = cf([0, 1, 0, 3.0])
    assert np.allclose(shapley(u), [2.0, 1.0])


def test_shapley_player_limit():
    with pytest.raises(ValueError):
        shapley(CharacteristicFunction(21, np.zeros(2**21)))


# --- null player / modular --------------------------------------------------


def test_null_player_detection():
    sensors = fisher_sensors([2.0, 3.0]) + [SensorSpec(H=np.zeros((1, 2)), R=np.eye(1))]
    u = fisher_charfn(sensors)
    assert is_null_player(u, 2)
    assert not is_null_player(u, 0)


def test_single_player_zero_game_is_null():
    assert is_null_player(cf([0, 0.0]), 0)


def test_fisher_games_modular():
    assert is_modular(fisher_charfn(fisher_sensors([2.0, 3.0, 5.0])))


def test_superadditive_game_not_modular():
    assert not is_modular(cf([0, 1, 1, 3.0]))


def test_perturbed_modular_game_not_modular():
    vals = coalition_matrix(3) @ np.array([1.0, 2.0, 3.0])
    vals[0b011] += 1.0
    assert not is_modular(cf(vals))


# --- rule probabilities -----------------------------------------------------


def test_rule_probabilities_weighted_group():
    g = triangle_grammar()
    pi = np.array([2.0, 3.0, 5.0])
    result = rule_probabilities(pi, triangle_assignment(), g)
    # S-group: rules I,II (player 0), IV,V (player 1), VII,VIII (player 2).
    denom = 2 * (2 + 3 + 5)
    assert result.probs["I"] == pytest.approx(2 / denom)
    assert result.probs["IV"] == pytest.approx(3 / denom)
    assert result.probs["VII"] == pytest.approx(5 / denom)
    assert result.probs["III"] == pytest.approx(1.0)
    assert not result.unreachable


def test_rule_probabilities_null_player_rule_zero():
    g = triangle_grammar()
    pi = np.array([2.0, 3.0, 0.0])
    result = rule_probabilities(pi, triangle_assignment(), g)
    assert result.probs["VII"] == 0.0
    assert result.probs["IX"] == 0.0
    assert "IX" in result.unreachable  # solo rule in a zero-mass group


def test_rule_probabilities_group_sums():
    g = triangle_grammar()
    pi = np.array([1.0, 4.0, 2.0])
    result = rule_probabilities(pi, triangle_assignment(), g)
    for _, rules in g.lhs_groups().items():
        total = sum(result.probs[r.id] for r in rules)
        if any(r.id not in result.unreachable for r in rules):
            assert total == pytest.approx(1.0, abs=1e-12)


def test_rule_probabilities_requires_full_assignment():
    g = triangle_grammar()
    partial = {k: v for k, v in triangle_assignment().items() if k != "XI"}
    with pytest.raises(ValueError):
        rule_probabilities(np.ones(3), partial, g)


def test_rule_probabilities_requires_every_player():
    g = triangle_grammar()
    assignment = {k: frozenset({0}) for k in triangle_assignment()}
    with pytest.raises(ValueError):
        rule_probabilities(np.ones(3), assignment, g)


# --- property tests ---------------------------------------------------------


small_games = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=7, max_size=7,
).map(lambda vals: cf([0.0] + vals))


@given(small_games)
@settings(max_examples=25, deadline=None)
def test_shapley_efficient(u):
    assert shapley(u).sum() == pytest.approx(u.grand_value, abs=1e-10)


@given(small_games)
@example(cf([0, 0, 1, 0, 1, 0, 0, 8.536e-10]))
@settings(max_examples=15, deadline=None)
def test_nucleolus_efficient_and_nonnegative(u):
    pi = nucleolus(u)
    assert pi.sum() == pytest.approx(u.grand_value, abs=1e-8)
    assert np.all(pi >= -1e-12)


@given(st.permutations([0, 1, 2]), small_games)
@settings(max_examples=15, deadline=None)
def test_solver_symmetry_under_relabeling(perm, u):
    perm = list(perm)
    masks = np.arange(8)
    permuted_vals = np.empty(8)
    for mask in masks:
        new_mask = 0
        for i in range(3):
            if mask >> i & 1:
                new_mask |= 1 << perm[i]
        permuted_vals[new_mask] = u.values[mask]
    pu = cf(permuted_vals)
    phi, phi_p = shapley(u), shapley(pu)
    nuc, nuc_p = nucleolus(u), nucleolus(pu)
    for i in range(3):
        assert phi_p[perm[i]] == pytest.approx(phi[i], abs=1e-9)
        assert nuc_p[perm[i]] == pytest.approx(nuc[i], abs=1e-7)


@given(
    st.lists(st.floats(min_value=0.0, max_value=9.0, allow_nan=False),
             min_size=3, max_size=3)
)
@settings(max_examples=25, deadline=None)
def test_modular_solutions_agree(traces):
    u = modular_game(traces)
    assert is_modular(u)
    assert np.allclose(shapley(u), traces, atol=1e-9)
    assert is_in_core(u, shapley(u), tol=1e-8)
