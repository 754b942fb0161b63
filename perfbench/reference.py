"""Computations made apart from the program, that the benchmark checks the
program's outputs against.  Each one is written from the model's definition
(README of the package), not by calling the function it checks.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- cooperative game --------------------------------------------------------


def fisher_trace_vector(sensors) -> np.ndarray:
    """trace(U * H^T R^-1 H) for each sensor, through an explicit inverse."""
    return np.array([
        s.measurements * float(np.trace(s.H.T @ np.linalg.inv(s.R) @ s.H))
        for s in sensors
    ])


def additive_table(traces: np.ndarray) -> np.ndarray:
    """u(S) = sum of the member traces, rows in bitmask order."""
    n = len(traces)
    return np.array([sum(traces[i] for i in range(n) if mask >> i & 1)
                     for mask in range(2**n)])


def scaled_table(spec) -> np.ndarray:
    """A class's coalition table divided by u(N), as records carry it."""
    table = additive_table(fisher_trace_vector(spec.sensors))
    return table / table[-1]


def check_allocation(spec, allocation) -> None:
    """An additive game's nucleolus is its singleton vector."""
    traces = fisher_trace_vector(spec.sensors)
    require(np.allclose(allocation, traces, rtol=0, atol=1e-7),
            f"{spec.class_id}: nucleolus {list(allocation)} != trace vector "
            f"{list(traces)}")


def check_records(records, classes) -> None:
    """Every record's u_scaled is the class table divided by u(N)."""
    expected = {spec.class_id: scaled_table(spec) for spec in classes}
    for r in records:
        require(np.allclose(r.u_scaled, expected[r.class_id], rtol=0, atol=1e-12),
                f"record seed {r.seed} ({r.class_id}): u_scaled differs from "
                "the Fisher table / u(N)")


# -- graph transformer -------------------------------------------------------


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def coalition_indicators(n: int) -> np.ndarray:
    return np.array([[(mask >> i) & 1 for i in range(n)] for mask in range(2**n)],
                    dtype=float)


def forward_values(model, graph) -> np.ndarray:
    """u_hat over all coalitions: GCN with A_hat = D^-1/2 (A + I) D^-1/2,
    per-head scaled dot-product attention, mean pool, dense head, then
    u_hat(S) = theta . (s + sigmoid(C s))."""
    cfg = model.config
    x = np.array(graph.node_features, dtype=float)
    n = x.shape[0]
    adj = np.eye(n)
    for i, j in graph.edges:
        adj[i, j] = adj[j, i] = 1.0
    deg = adj.sum(axis=1)
    a_hat = adj / np.sqrt(np.outer(deg, deg))
    h = x
    for w in model.gcn_weights:
        h = np.maximum(a_hat @ h @ w, 0.0)
    n_heads, dk = cfg.n_attention_heads, cfg.key_dim
    dv = cfg.hidden_dim // n_heads
    q_all, k_all, v_all = h @ model.w_q, h @ model.w_k, h @ model.w_v
    outs = []
    for head in range(n_heads):
        q = q_all[:, head * dk:(head + 1) * dk]
        k = k_all[:, head * dk:(head + 1) * dk]
        v = v_all[:, head * dv:(head + 1) * dv]
        scores = np.einsum("id,jd->ij", q, k) / math.sqrt(dk)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        outs.append(weights @ v)
    refined = np.concatenate(outs, axis=1) @ model.w_o
    z = model.w_out @ refined.mean(axis=0) + model.b_out
    theta = np.maximum(z, 0.0) if cfg.head_activation == "relu" else z
    s = coalition_indicators(len(theta))
    return np.array([theta @ (row + _sigmoid(model.coupling @ row)) for row in s])


def head_floor_mse(coupling: np.ndarray, target: np.ndarray, signed: bool) -> float:
    """Lowest coalition MSE the head can reach for one target table under the
    frozen coupling: least squares over theta, with theta >= 0 for a ReLU
    head.  The non-negative problem is solved exactly by trying every support
    set (n is small), keeping solutions that are non-negative on it."""
    n = coupling.shape[0]
    s = coalition_indicators(n)
    design = s + _sigmoid(s @ coupling.T)
    best = float(np.mean(target ** 2))  # theta = 0
    for support in range(1, 2**n):
        cols = [i for i in range(n) if support >> i & 1]
        coef, *_ = np.linalg.lstsq(design[:, cols], target, rcond=None)
        if not signed and np.any(coef < 0):
            continue
        best = min(best, float(np.mean((design[:, cols] @ coef - target) ** 2)))
    return best


# -- parse trees and tracking ------------------------------------------------


def check_tree(tree, string, ref_grammar) -> None:
    """Leaf yield is the string, internal labels are rule ids of the
    reference grammar, and the log probability is the sum of their log
    reference probabilities."""
    require(tree.leaf_yield() == tuple(string),
            f"tree yield {tree.leaf_yield()} != string {tuple(string)}")
    parents = {p for p, _ in tree.edges}
    labels = [node.label for node in tree.nodes if node.id in parents]
    rule_ids = {r.id for r in ref_grammar.rules}
    unknown = [lab for lab in labels if lab not in rule_ids]
    require(not unknown, f"internal labels {unknown} are not reference rule ids")
    logp = sum(math.log(ref_grammar.probs[lab]) for lab in labels)
    require(abs(logp - tree.log_probability) <= 1e-9 * max(1.0, abs(logp)),
            f"log probability {tree.log_probability} != sum of rule log "
            f"probabilities {logp} for {' '.join(string)}")


def post_merge(letters) -> tuple[str, ...]:
    """One run per letter, in order of first appearance: the string that
    zero-noise tracking of a hierarchical schedule must reproduce."""
    order = list(dict.fromkeys(letters))
    return tuple(sym for sym in order for _ in range(letters.count(sym)))
