"""Metalevel layer: quantized track encoding, multi-target merge into a
single symbol string, bounded chart parsing into derivation trees, and the
tree-to-feature-graph conversion feeding the neural module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lcfrs
from .grammar import Grammar
from .kinematics import DEFAULT_ZERO_THRESHOLD, ZERO_TERMINAL, quantize_velocity
from .lcfrs import ParseError, lcfrs_for

SymbolString = tuple[str, ...]

DEFAULT_MAX_PARSE_LENGTH = 40


@dataclass(frozen=True)
class TreeNode:
    id: int
    label: str                      # rule id, or terminal name for leaves
    spans: tuple[tuple[int, int], ...]
    family: int                     # LHS-group index; terminals get n_groups

    def __post_init__(self):
        if len(self.spans) > 2:
            raise ValueError("nodes carry at most two spans (fan-out <= 2)")


@dataclass(frozen=True)
class ParseTree:
    nodes: tuple[TreeNode, ...]
    edges: tuple[tuple[int, int], ...]  # parent -> child
    root: int
    log_probability: float = 0.0
    chart_items: int = 0

    @property
    def probability(self) -> float:
        return float(np.exp(self.log_probability))

    def children(self, node_id: int) -> list[int]:
        return [c for p, c in self.edges if p == node_id]

    def leaves(self) -> list[TreeNode]:
        internal = {p for p, _ in self.edges}
        leaf_nodes = [n for n in self.nodes if n.id not in internal]
        return sorted(leaf_nodes, key=lambda n: n.spans[0][0])

    def leaf_yield(self) -> SymbolString:
        return tuple(n.label for n in self.leaves())

    def applied_rules(self) -> list[str]:
        internal = {p for p, _ in self.edges}
        return [n.label for n in self.nodes if n.id in internal]

    def to_json(self) -> str:
        return json.dumps(
            {
                "nodes": [
                    {"id": n.id, "label": n.label,
                     "spans": [list(s) for s in n.spans], "family": n.family}
                    for n in self.nodes
                ],
                "edges": [list(e) for e in self.edges],
                "root": self.root,
                "log_probability": self.log_probability,
            },
            indent=2,
        )


@dataclass(frozen=True, eq=False)
class FeatureGraph:
    """Undirected graph with per-node feature vectors.

    Self loops are not stored; the GCN adds the self connection inside its
    normalized update.
    """

    node_features: np.ndarray            # (n_nodes, feature_dim)
    edges: tuple[tuple[int, int], ...]   # undirected, i < j, unique

    def __post_init__(self):
        feats = np.asarray(self.node_features, dtype=float)
        if feats.ndim != 2:
            raise ValueError("node features must be a 2-D array")
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError("self loops are not stored")
            if not (0 <= i < feats.shape[0] and 0 <= j < feats.shape[0]):
                raise ValueError("edge endpoint out of range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError("duplicate undirected edge")
            seen.add(key)
        feats = feats.copy()
        feats.flags.writeable = False
        object.__setattr__(self, "node_features", feats)
        object.__setattr__(
            self, "edges", tuple((min(i, j), max(i, j)) for i, j in self.edges)
        )

    @property
    def n_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]

    @cached_property
    def normalized_adjacency(self) -> np.ndarray:
        """The GCN's propagation matrix D^-1/2 (A + I) D^-1/2, where D is the
        degree matrix of A + I.  The graph is immutable, so the matrix is
        built on first use, kept, and handed out read-only."""
        a = np.eye(self.n_nodes)
        if self.edges:
            i, j = np.array(self.edges).T
            a[i, j] = a[j, i] = 1.0
        inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
        a_hat = a * inv_sqrt[:, None] * inv_sqrt[None, :]
        a_hat.flags.writeable = False
        return a_hat


# ---------------------------------------------------------------------------
# Track encoding and merging
# ---------------------------------------------------------------------------


def encode(frames, zero_threshold: float = DEFAULT_ZERO_THRESHOLD):
    """Quantize each target's velocity estimates into terminal sequences.

    Targets are matched positionally across frames (no data association); the
    output is equivariant under target permutation, and the downstream merge
    restores full permutation invariance.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("need at least one frame")
    n_targets = len(frames[0].estimates)
    if n_targets == 0 or any(len(f.estimates) != n_targets for f in frames):
        raise ValueError("frames must hold a consistent, positive target count")
    sequences = []
    for j in range(n_targets):
        seq = tuple(
            quantize_velocity(f.estimates[j].velocity, zero_threshold) for f in frames
        )
        sequences.append(seq)
    return tuple(sequences)


def _family_and_sign(symbol: str) -> tuple[str, bool]:
    if symbol.startswith("-"):
        return symbol[1:], False
    return symbol, True


def merge_tracks(sequences) -> SymbolString:
    """Merge per-target terminal sequences into one collective string.

    Per timestep, the set of moving directions across targets is taken once
    each (overlap dedup); zero symbols are dropped; a direction and its
    negation count as the same motion pattern (written positive when any
    positive occurrence exists); patterns are emitted as runs in order of
    first appearance, simultaneous debuts ordered canonically by name so the
    result is invariant to target ordering.
    """
    seqs = [list(s) for s in sequences]
    if not seqs or any(len(s) == 0 for s in seqs):
        raise ValueError("need nonempty sequences")
    horizon = max(len(s) for s in seqs)
    counts: dict[str, int] = {}
    first_seen: dict[str, tuple[int, str]] = {}
    positive_seen: dict[str, bool] = {}
    for k in range(horizon):
        active: set[str] = set()
        for seq in seqs:
            if k >= len(seq) or seq[k] == ZERO_TERMINAL:
                continue
            family, positive = _family_and_sign(seq[k])
            active.add(family)
            positive_seen[family] = positive_seen.get(family, False) or positive
        for family in active:
            counts[family] = counts.get(family, 0) + 1
            first_seen.setdefault(family, (k, family))
    ordered = sorted(counts, key=lambda fam: first_seen[fam])
    out: list[str] = []
    for family in ordered:
        name = family if positive_seen[family] else "-" + family
        out.extend([name] * counts[family])
    return tuple(out)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _build_tree(entry, chart, lcfrs_obj, root_spans, log_probability,
                chart_items) -> ParseTree:
    nodes: list[TreeNode] = []
    edges: list[tuple[int, int]] = []
    terminal_family = lcfrs_obj.n_families

    def emit(entry, spans) -> int:
        """Materialize an entry as a chain of tag nodes; returns the top id."""
        tag_ids = []
        for tag in entry.rule.tags:
            node_id = len(nodes)
            nodes.append(
                TreeNode(
                    id=node_id,
                    label=tag,
                    spans=spans,
                    family=lcfrs_obj.family_of_tag.get(tag, terminal_family),
                )
            )
            if tag_ids:
                edges.append((tag_ids[-1], node_id))
            tag_ids.append(node_id)
        attach_to = tag_ids[-1]
        # Children in reading order: child subtrees and this rule's terminals.
        parts = []
        for child_key in entry.children:
            child_entry = chart[child_key]
            parts.append(("child", child_key[1][0][0], child_entry, child_key[1]))
        for pos, name in entry.terminal_positions:
            parts.append(("leaf", pos, name, None))
        parts.sort(key=lambda item: item[1])
        for kind, pos, payload, child_spans in parts:
            if kind == "leaf":
                node_id = len(nodes)
                nodes.append(
                    TreeNode(
                        id=node_id,
                        label=payload,
                        spans=((pos, pos + 1),),
                        family=terminal_family,
                    )
                )
                edges.append((attach_to, node_id))
            else:
                child_id = emit(payload, child_spans)
                edges.append((attach_to, child_id))
        return tag_ids[0]

    root_id = emit(entry, root_spans)
    return ParseTree(
        nodes=tuple(nodes),
        edges=tuple(edges),
        root=root_id,
        log_probability=log_probability,
        chart_items=chart_items,
    )


def parse(
    s,
    g: Grammar,
    max_length: int = DEFAULT_MAX_PARSE_LENGTH,
) -> ParseTree:
    """Maximum-probability derivation tree of `s` under `g`.

    The grammar is converted to a fan-out-2 LCFRS (rejecting unsupported
    rule sets), and the Viterbi tree over the chart is returned with rule
    probabilities multiplied along applied rules.
    """
    tokens = list(s)
    if not tokens:
        raise ParseError("cannot parse an empty string")
    if len(tokens) > max_length:
        raise ParseError(
            f"string length {len(tokens)} exceeds the configured bound {max_length}"
        )
    unknown = [tok for tok in tokens if tok not in g.terminals]
    if unknown:
        raise ParseError(f"tokens {unknown} are not terminals of the grammar")
    lc = lcfrs_for(g)
    entry, chart = lcfrs.best_parse(lc, tokens)
    return _build_tree(
        entry, chart, lc, ((0, len(tokens)),), entry.logw, len(chart)
    )


# ---------------------------------------------------------------------------
# Feature graphs
# ---------------------------------------------------------------------------


def tree_to_graph(tree: ParseTree, feature_dim: int = 16) -> FeatureGraph:
    """Undirected parent-child graph with structural node features.

    Feature layout (fixed order): out-degree, in-degree, local clustering
    coefficient, depth, then a one-hot rule-family tag zero-padded to
    `feature_dim`.  A tree has no triangles, so every clustering coefficient
    is 0: column 2 is kept as a constant 0 to hold the layout fixed.
    """
    n = len(tree.nodes)
    if feature_dim < 5:
        raise ValueError("feature dimension must leave room for the family tag")
    id_to_idx = {node.id: k for k, node in enumerate(tree.nodes)}
    out_deg = np.zeros(n)
    in_deg = np.zeros(n)
    edges = []
    for p, c in tree.edges:
        out_deg[id_to_idx[p]] += 1
        in_deg[id_to_idx[c]] += 1
        edges.append((id_to_idx[p], id_to_idx[c]))
    depth = np.zeros(n)
    order = [tree.root]
    while order:
        node_id = order.pop()
        for child in tree.children(node_id):
            depth[id_to_idx[child]] = depth[id_to_idx[node_id]] + 1
            order.append(child)
    slots = feature_dim - 4
    feats = np.zeros((n, feature_dim))
    for k, node in enumerate(tree.nodes):
        feats[k, 0] = out_deg[k]
        feats[k, 1] = in_deg[k]
        feats[k, 3] = depth[k]
        feats[k, 4 + node.family % slots] = 1.0
    return FeatureGraph(node_features=feats, edges=tuple(edges))


def chain_graph(tokens, feature_dim: int = 16, family: int = 0) -> FeatureGraph:
    """Degenerate fallback graph for unparseable strings: a token chain."""
    tokens = list(tokens)
    if not tokens:
        raise ValueError("need at least one token")
    n = len(tokens)
    slots = feature_dim - 4
    feats = np.zeros((n, feature_dim))
    edges = tuple((i, i + 1) for i in range(n - 1))
    for i in range(n):
        feats[i, 0] = 1.0 if i < n - 1 else 0.0
        feats[i, 1] = 1.0 if i > 0 else 0.0
        feats[i, 3] = float(i)
        feats[i, 4 + family % slots] = 1.0
    return FeatureGraph(node_features=feats, edges=edges)
