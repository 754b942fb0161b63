import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupintent.grammar import (
    SCFG_RULE_IDS,
    SRG_RULE_IDS,
    Grammar,
    ProductionRule,
    generate,
    grammar_from_json,
    grammar_to_json,
    nt,
    restricted,
    t,
    triangle_grammar,
)
from groupintent.harness import reference_grammar
from groupintent.kinematics import (
    MultiTargetFrame,
    TrackEstimate,
    direction_vector,
)
from groupintent.lcfrs import (
    ParseError,
    UnsupportedGrammarError,
    grammar_to_lcfrs,
    lcfrs_for,
)
from groupintent.metaparse import (
    FeatureGraph,
    ParseTree,
    TreeNode,
    chain_graph,
    encode,
    merge_tracks,
    parse,
    tree_to_graph,
)
from lcfrs_oracle import enumerate_derivations, triangle_conversion_tags


def estimate(velocity, k=0):
    mean = np.array([0.0, 0.0, velocity[0], velocity[1]])
    return TrackEstimate(mean=mean, covariance=np.eye(4) * 1e-4, timestep=k)


def frames_from_rows(rows):
    """rows[k] = list of per-target velocity 2-vectors at timestep k."""
    return [
        MultiTargetFrame(estimates=tuple(estimate(v, k) for v in row))
        for k, row in enumerate(rows)
    ]


def seq_frames(sequences):
    """Per-target symbol sequences -> frames of direction-vector estimates."""
    horizon = len(sequences[0])
    rows = [[direction_vector(seq[k]) for seq in sequences] for k in range(horizon)]
    return frames_from_rows(rows)


# --- encode -----------------------------------------------------------------

EX1 = (
    ("l1",) * 3 + ("0",) * 6,
    ("l1",) * 3 + ("l4",) * 3 + ("0",) * 3,
    ("l1",) * 3 + ("l4",) * 3 + ("-l2",) * 3,
)


def test_encode_hierarchical_targets():
    assert encode(seq_frames(EX1)) == EX1


def test_encode_stationary_target():
    frames = frames_from_rows([[(0.0, 0.0)]] * 5)
    assert encode(frames) == (("0",) * 5,)


def test_encode_equivariant_under_target_permutation():
    frames = seq_frames(EX1)
    swapped = [
        MultiTargetFrame(estimates=(f.estimates[2], f.estimates[0], f.estimates[1]))
        for f in frames
    ]
    assert encode(swapped) == (EX1[2], EX1[0], EX1[1])


def test_encode_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        encode([])
    frames = seq_frames(EX1)
    bad = frames[:1] + [MultiTargetFrame(estimates=frames[1].estimates[:2])]
    with pytest.raises(ValueError):
        encode(bad)


# --- merge_tracks -----------------------------------------------------------


def test_merge_hierarchical_example():
    assert merge_tracks(EX1) == ("l1",) * 3 + ("l4",) * 3 + ("-l2",) * 3


def test_merge_splitting_example():
    seqs = (("l1",) * 3 + ("l4",) * 3, ("l2",) * 3 + ("-l4",) * 3)
    assert merge_tracks(seqs) == ("l1",) * 3 + ("l2",) * 3 + ("l4",) * 3


def test_merge_interleaved_association_example():
    seqs = (
        ("l1", "l2", "l1", "-l4", "l4", "l4"),
        ("l2", "l1", "l2", "l4", "-l4", "-l4"),
    )
    assert merge_tracks(seqs) == ("l1",) * 3 + ("l2",) * 3 + ("l4",) * 3


@given(st.permutations(list(range(3))))
@settings(max_examples=6, deadline=None)
def test_merge_invariant_to_target_order(perm):
    seqs = [EX1[i] for i in perm]
    assert merge_tracks(seqs) == merge_tracks(EX1)


def test_merge_rejects_empty():
    with pytest.raises(ValueError):
        merge_tracks([])
    with pytest.raises(ValueError):
        merge_tracks([()])


def test_merge_single_sequence_canonical_form():
    # Zeros drop, revisited direction folds into its first run.
    assert merge_tracks([("l1", "0", "l3", "l1")]) == ("l1", "l1", "l3")


# --- parse ------------------------------------------------------------------


def test_parse_single_d_two_rule_chain():
    g = restricted(triangle_grammar(), SRG_RULE_IDS)
    tree = parse(["d"], g)
    assert tree.leaf_yield() == ("d",)
    assert tree.applied_rules() == ["II", "III"]
    assert tree.probability == pytest.approx(g.probs["II"] * g.probs["III"])


def test_parse_balanced_string_under_closing_rules():
    g = restricted(triangle_grammar(), ("VII", "VIII", "IX", "IXb", "X", "XI", "XII"))
    tree = parse(list("ddbbcc"), g)
    assert tree.leaf_yield() == tuple("ddbbcc")
    assert sorted(tree.applied_rules()) == ["VII", "VIII"]
    # Node count frozen from the hand-built chart derivation: two rule nodes
    # spanning (dd, bbcc) plus six terminal leaves.
    assert len(tree.nodes) == 8
    tags = triangle_conversion_tags(list("ddbbcc"), g)
    assert sorted(tags) == ["IX", "IXb", "X", "XI", "XII"]


def test_parse_unreachable_ordering_fails():
    g = triangle_grammar()
    with pytest.raises(ParseError):
        parse(list("cab"), g)
    with pytest.raises(ParseError):
        parse(list("cdb"), g)
    with pytest.raises(ParseError):
        parse(list("bd"), g)


def test_parse_empty_and_oversized_strings_rejected():
    g = triangle_grammar()
    with pytest.raises(ParseError):
        parse([], g)
    with pytest.raises(ParseError):
        parse(["d"] * 10, g, max_length=5)


def test_conversion_table_required_for_context_sensitive_rules():
    g = triangle_grammar()
    # Knock out the swap rule: the remaining context-sensitive set no longer
    # matches the shipped table.
    ids = [r.id for r in g.rules if r.id != "XI"]
    with pytest.raises(UnsupportedGrammarError):
        lcfrs_for(restricted(g, ids))
    # A copy of the family under other rule ids, or over other letters, is
    # not the built-in family: the table is keyed on its ids and letters.
    renamed_ids = Grammar(
        g.nonterminals, g.terminals, g.start,
        tuple(ProductionRule("r" + r.id, r.lhs, r.rhs) for r in g.rules),
        {"r" + k: v for k, v in g.probs.items()},
    )
    letters = {"d": "x", "b": "y", "c": "z"}

    def rename(symbols):
        return tuple(t(letters[s.name]) if s.kind == "terminal" else s for s in symbols)

    renamed_letters = Grammar(
        g.nonterminals, frozenset(letters.values()), g.start,
        tuple(ProductionRule(r.id, rename(r.lhs), rename(r.rhs)) for r in g.rules),
        g.probs,
    )
    for copy in (renamed_ids, renamed_letters):
        with pytest.raises(UnsupportedGrammarError):
            grammar_to_lcfrs(copy)
    # A grammar file written by this package keeps ids and names, so its
    # round trip converts to the same table.
    ref = reference_grammar()
    assert grammar_to_lcfrs(grammar_from_json(grammar_to_json(ref))) == (
        grammar_to_lcfrs(ref)
    )


def test_round_trip_all_classes():
    g = triangle_grammar()
    for ids in (SRG_RULE_IDS, SCFG_RULE_IDS, None):
        sub = restricted(g, ids) if ids else g
        seen = set()
        for seed in range(300):
            s = generate(sub, seed)
            if s in seen:
                continue
            seen.add(s)
            assert parse(s, sub).leaf_yield() == s


def short_samples(g, minimum):
    strings = {s for s in (generate(g, seed) for seed in range(400)) if len(s) <= 6}
    assert len(strings) >= minimum
    return sorted(strings)


def cyclic_unit_grammar(probs):
    """S -> A | a | A a, A -> S | a.  A unit rule's parent has the same yield
    length as its child, and S -> A a carries a unit-derived A into a longer
    item, so an A finalized before its best derivation shows at the root."""
    S, A, a = nt("S"), nt("A"), t("a")
    rules = (
        ProductionRule("SA", (S,), (A,)),
        ProductionRule("Sa", (S,), (a,)),
        ProductionRule("SAa", (S,), (A, a)),
        ProductionRule("AS", (A,), (S,)),
        ProductionRule("Aa", (A,), (a,)),
    )
    return Grammar(frozenset({"S", "A"}), frozenset({"a"}), "S", rules, probs)


def chained_grammar(probs):
    """S -> A B C | a, A -> a | S, B -> b | S, C -> c.  With C popped, A
    touches only B, so A is found through B's boundary, not C's."""
    S, A, B, C = nt("S"), nt("A"), nt("B"), nt("C")
    a, b, c = t("a"), t("b"), t("c")
    rules = (
        ProductionRule("SABC", (S,), (A, B, C)),
        ProductionRule("Sa", (S,), (a,)),
        ProductionRule("Aa", (A,), (a,)),
        ProductionRule("AS", (A,), (S,)),
        ProductionRule("Bb", (B,), (b,)),
        ProductionRule("BS", (B,), (S,)),
        ProductionRule("Cc", (C,), (c,)),
    )
    return Grammar(frozenset({"S", "A", "B", "C"}), frozenset({"a", "b", "c"}),
                   "S", rules, probs)


def test_map_parse_matches_brute_force_enumeration():
    g = triangle_grammar()
    cases = [(g, s) for s in short_samples(g, 8)]
    # The restricted classes go through the generic CFG conversion.
    for ids in (SRG_RULE_IDS, SCFG_RULE_IDS):
        sub = restricted(g, ids)
        cases += [(sub, s) for s in short_samples(sub, 4)]
    unit_weights = (
        # S -> a wins.
        {"SA": 0.4, "Sa": 0.3, "SAa": 0.3, "AS": 0.5, "Aa": 0.5},
        # A's best derivation runs through S: A -> S -> a.
        {"SA": 0.1, "Sa": 0.6, "SAa": 0.3, "AS": 0.9, "Aa": 0.1},
        # S's best derivation runs through A: S -> A -> a.
        {"SA": 0.9, "Sa": 0.05, "SAa": 0.05, "AS": 0.1, "Aa": 0.9},
        # S -> a ties S -> A -> a (0.1 == 0.8 * 0.125).
        {"SA": 0.8, "Sa": 0.1, "SAa": 0.1, "AS": 0.875, "Aa": 0.125},
    )
    for probs in unit_weights:
        cases += [(cyclic_unit_grammar(probs), s) for s in (("a",), ("a", "a"))]
    # A 3-child rule, where one sibling is anchored only through another.
    chained_weights = (
        {"SABC": 0.5, "Sa": 0.5, "Aa": 0.5, "AS": 0.5, "Bb": 0.5, "BS": 0.5,
         "Cc": 1.0},
        # A -> a ties A -> S -> a (1/3 == 2/3 * 1/2): "aabcc" has four tied
        # derivations.
        {"SABC": 0.5, "Sa": 0.5, "Aa": 1 / 3, "AS": 2 / 3, "Bb": 0.5, "BS": 0.5,
         "Cc": 1.0},
    )
    for probs in chained_weights:
        cases += [(chained_grammar(probs), tuple(s))
                  for s in ("abc", "aac", "aabcc", "aaacc")]
    for grammar, s in cases:
        tree = parse(s, grammar)
        derivations = enumerate_derivations(lcfrs_for(grammar), list(s))
        best = max(logw for logw, _ in derivations)
        assert tree.log_probability == pytest.approx(best, abs=1e-9)
        tied = sorted(
            tagseq
            for logw, tagseq in derivations
            if logw == pytest.approx(tree.log_probability, abs=1e-12)
        )
        assert tuple(tree.applied_rules()) == tied[0]


def test_viterbi_tie_break_prefers_smallest_rule_sequence():
    # "ddb" has two derivations of equal weight under hand-tuned probs:
    # strip+single_stop {I,V} and single+chain_stop {II,III,IV}.
    g = triangle_grammar()
    probs = dict(g.probs)
    # p1*p5 == p4*p2*p3: pick p1=0.2, p5=0.1, p4=0.1, p2=0.2, p3=1.0
    probs.update({"I": 0.2, "II": 0.2, "IV": 0.1, "V": 0.1, "VII": 0.2, "VIII": 0.2})
    g2 = g.with_probs(probs)
    tree = parse(list("ddb"), g2)
    seqs = sorted(
        tagseq
        for logw, tagseq in enumerate_derivations(lcfrs_for(g2), list("ddb"))
        if logw == pytest.approx(tree.log_probability, abs=1e-12)
    )
    got = tuple(tree.applied_rules())
    assert got == seqs[0]


def test_chart_growth_polynomial():
    g = triangle_grammar()
    small = parse(list("dddd" + "bb" + "cc"), g).chart_items        # length 8
    big = parse(list("dddddddd" + "bbbb" + "cccc"), g).chart_items  # length 16
    assert big <= 64 * small


# Sweep strings of 21-24 tokens and the 27-token desk-scale string under the
# reference grammar (21-27 tokens): chart size, MAP rule sequence and
# log-probability, frozen from the parser's output.
LONG_GOLDENS = (
    ("ddddddddbbbcbcbcbbbcc", 434,
     ["V", "IV", "VII", "VII", "VII", "IV", "VII", "VII"], -14.334075753824438),
    ("ddddddddbbcbcbcbbcbcbc", 466,
     ["V", "VII", "VII", "VII", "IV", "VII", "VII", "VII"], -14.334075753824438),
    ("ddddddddddbbbbbbbccccccc", 524,
     ["I", "I", "I", "VIII", "VII", "VII", "VII", "VII", "VII", "VII"],
     -17.91759469228055),
    ("dddddddddddbcbcbcbbbbbbcbbc", 863,
     ["VIII", "VII", "VII", "IV", "IV", "IV", "IV", "IV", "VII", "IV", "VII"],
     -19.709354161508603),
)


@pytest.mark.parametrize(
    "s, chart_items, rules, log_probability", LONG_GOLDENS,
    ids=[case[0] for case in LONG_GOLDENS],
)
def test_long_string_goldens(s, chart_items, rules, log_probability):
    tree = parse(tuple(s), reference_grammar())
    assert tree.chart_items == chart_items
    assert tree.applied_rules() == rules
    assert tree.log_probability == pytest.approx(log_probability, abs=1e-12)


# --- tree_to_graph ----------------------------------------------------------


def chain_tree():
    nodes = (
        TreeNode(id=0, label="II", spans=((0, 1),), family=0),
        TreeNode(id=1, label="III", spans=((0, 1),), family=1),
        TreeNode(id=2, label="d", spans=((0, 1),), family=2),
    )
    return ParseTree(nodes=nodes, edges=((0, 1), (1, 2)), root=0)


def test_three_node_chain_features():
    graph = tree_to_graph(chain_tree(), feature_dim=8)
    assert graph.n_nodes == 3
    degrees = graph.node_features[:, 0] + graph.node_features[:, 1]
    assert list(degrees) == [1, 2, 1]
    assert np.all(graph.node_features[:, 2] == 0.0)  # trees are triangle-free
    assert list(graph.node_features[:, 3]) == [0.0, 1.0, 2.0]


def test_depth_reaches_tree_height():
    g = triangle_grammar()
    tree = parse(list("dddbc"), g)
    graph = tree_to_graph(tree, feature_dim=16)
    depths = graph.node_features[:, 3]
    assert depths.min() == 0.0
    leaf_rows = [
        i for i, node in enumerate(tree.nodes)
        if not tree.children(node.id)
    ]
    assert depths.max() == max(depths[leaf_rows])


def test_parse_tree_graph_clustering_zero():
    g = triangle_grammar()
    for seed in range(40):
        s = generate(g, seed)
        graph = tree_to_graph(parse(s, g), feature_dim=16)
        assert np.all(graph.node_features[:, 2] == 0.0)


def test_graph_node_count_matches_hand_parse():
    g = restricted(triangle_grammar(), ("VII", "VIII", "IX", "IXb", "X", "XI", "XII"))
    graph = tree_to_graph(parse(list("ddbbcc"), g), feature_dim=16)
    assert graph.n_nodes == 8
    assert graph.n_edges == 7  # a tree has n - 1 edges


def test_feature_graph_validation():
    with pytest.raises(ValueError):
        FeatureGraph(node_features=np.zeros((2, 4)), edges=((0, 0),))
    with pytest.raises(ValueError):
        FeatureGraph(node_features=np.zeros((2, 4)), edges=((0, 1), (1, 0)))


def test_chain_graph_fallback():
    graph = chain_graph(["d", "b", "x"], feature_dim=8, family=2)
    assert graph.n_nodes == 3
    assert graph.edges == ((0, 1), (1, 2))
    assert np.all(graph.node_features[:, 4 + 2] == 1.0)


def test_tree_json_export():
    tree = chain_tree()
    obj = __import__("json").loads(tree.to_json())
    assert obj["root"] == 0
    assert len(obj["nodes"]) == 3
    assert obj["edges"] == [[0, 1], [1, 2]]
