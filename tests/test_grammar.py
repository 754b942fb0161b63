import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupintent import grammar as grammar_mod
from groupintent.grammar import (
    DeadEndError,
    Grammar,
    GrammarClass,
    GrammarError,
    ProductionRule,
    SCFG_RULE_IDS,
    SRG_RULE_IDS,
    apply_noise,
    classify,
    derivation_trace,
    generate,
    grammar_from_json,
    grammar_to_json,
    nt,
    restricted,
    t,
    triangle_grammar,
    validate,
)


# --- validate ---------------------------------------------------------------


def test_triangle_uniform_validates():
    assert validate(triangle_grammar()) == []


def test_probability_above_one_flagged():
    g = triangle_grammar()
    probs = dict(g.probs)
    probs["I"] = 1.2
    violations = validate(g.with_probs(probs))
    assert any("I" in v and "outside" in v for v in violations)


def test_group_normalization_violation_named():
    g = triangle_grammar()
    probs = dict(g.probs)
    probs["III"] = 0.9
    violations = validate(g.with_probs(probs))
    assert any("D" in v and "0.9" in v for v in violations)


def test_zero_mass_group_allowed():
    g = restricted(triangle_grammar(), SRG_RULE_IDS)
    assert validate(g) == []


def test_undeclared_symbol_flagged():
    g = Grammar(
        nonterminals=frozenset({"S"}),
        terminals=frozenset({"a"}),
        start="S",
        rules=(ProductionRule("r1", (nt("S"),), (t("zz"),)),),
        probs={"r1": 1.0},
    )
    assert any("zz" in v for v in validate(g))


def test_lhs_needs_nonterminal():
    with pytest.raises(ValueError):
        ProductionRule("bad", (t("a"),), (t("a"),))


# --- classify ---------------------------------------------------------------


def test_classify_srg_restriction():
    assert classify(restricted(triangle_grammar(), SRG_RULE_IDS)) is GrammarClass.SRG


def test_classify_scfg_restriction():
    assert classify(restricted(triangle_grammar(), SCFG_RULE_IDS)) is GrammarClass.SCFG


def test_classify_full_family_scsg():
    assert classify(triangle_grammar()) is GrammarClass.SCSG


def test_classify_monotone_under_zeroing():
    order = {GrammarClass.SRG: 0, GrammarClass.SCFG: 1, GrammarClass.SCSG: 2}
    g = triangle_grammar()
    full = order[classify(g)]
    rng = np.random.default_rng(0)
    ids = [r.id for r in g.rules]
    for _ in range(20):
        keep = [i for i in ids if rng.random() < 0.7]
        sub = restricted(g, keep)
        if not sub.positive_rules():
            continue
        assert order[classify(sub)] <= full


# --- apply_noise ------------------------------------------------------------


def test_noise_zero_keeps_probabilities():
    g = triangle_grammar()
    noisy = apply_noise(g, 0.0)
    for rule in g.rules:
        assert noisy.probs[rule.id] == g.probs[rule.id]
    eps_rules = [r for r in noisy.rules if r.is_noise]
    assert eps_rules and all(noisy.probs[r.id] == 0.0 for r in eps_rules)


def test_noise_rescales_exactly():
    g = triangle_grammar()
    noisy = apply_noise(g, 0.1)
    for rule in g.rules:
        assert noisy.probs[rule.id] == g.probs[rule.id] * 0.9
    eps = [r for r in noisy.rules if r.is_noise]
    assert all(noisy.probs[r.id] == 0.1 for r in eps)


def test_noise_preserves_group_normalization():
    g = triangle_grammar()
    for q in (0.0, 0.1, 0.3, 0.7):
        noisy = apply_noise(g, q)
        assert validate(noisy) == []
        for _, rules in noisy.lhs_groups().items():
            total = sum(noisy.probs[r.id] for r in rules)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_noise_q_out_of_range():
    with pytest.raises(ValueError):
        apply_noise(triangle_grammar(), 1.0)
    with pytest.raises(ValueError):
        apply_noise(triangle_grammar(), -0.1)


def test_noise_skips_disabled_groups():
    g = restricted(triangle_grammar(), SRG_RULE_IDS)
    noisy = apply_noise(g, 0.2)
    assert validate(noisy) == []
    groups = noisy.lhs_groups()
    b_group = groups[(nt("B"),)]
    assert all(noisy.probs[r.id] == 0.0 for r in b_group)


@given(st.floats(min_value=0.0, max_value=0.99))
@settings(max_examples=50, deadline=None)
def test_noise_normalization_property(q):
    noisy = apply_noise(triangle_grammar(), q)
    for _, rules in noisy.lhs_groups().items():
        total = sum(noisy.probs[r.id] for r in rules)
        assert abs(total - 1.0) <= 1e-12


# --- generate / derivation_trace --------------------------------------------


def test_forced_derivation_single_d():
    g = restricted(triangle_grammar(), ("II", "III"))
    string, trace = derivation_trace(g, seed=0)
    assert string == ("d",)
    assert [step.rule_id for step in trace] == ["II", "III"]


def test_golden_scsg_string_reachable():
    # Frozen seed: the closing-rule subset emits the balanced string.
    g = restricted(triangle_grammar(), ("VII", "VIII", "IX", "IXb", "X", "XI", "XII"))
    assert "".join(generate(g, seed=8)) == "ddbbcc"


def test_golden_mixed_string_reachable():
    # Frozen seed: corner+closing subset emits the three-singles string.
    g = restricted(
        triangle_grammar(),
        ("IV", "V", "VI", "VII", "VIII", "IX", "IXb", "X", "XI", "XII"),
    )
    assert "".join(generate(g, seed=193)) == "dddbbbcc"


def test_generation_deterministic_under_seed():
    g = triangle_grammar()
    assert generate(g, seed=1234) == generate(g, seed=1234)
    a = derivation_trace(g, seed=99)
    b = derivation_trace(g, seed=99)
    assert a == b


def replay_trace(g: Grammar, trace) -> tuple[str, ...]:
    """Deterministically re-apply a recorded trace; returns the final string."""
    rules = {rule.id: rule for rule in g.rules}
    form = [nt(g.start)]
    for step in trace:
        rule = rules[step.rule_id]
        k = len(rule.lhs)
        if tuple(form[step.position : step.position + k]) != rule.lhs:
            raise GrammarError(f"trace step {step} does not match the form")
        replacement = [
            t(step.emitted) if sym.kind == "noise" else sym for sym in rule.rhs
        ]
        form[step.position : step.position + k] = replacement
    if any(s.kind != "terminal" for s in form):
        raise GrammarError("trace ends with nonterminals remaining")
    return tuple(s.name for s in form)


_FORM_SYMBOLS = [nt("S"), nt("D"), nt("B"), nt("C"), t("d"), t("b"), t("c")]


@given(st.lists(st.sampled_from(_FORM_SYMBOLS), min_size=1, max_size=14),
       st.sampled_from([0.0, 0.3]))
@settings(max_examples=100, deadline=None)
def test_match_positions_equal_a_scan_of_every_rule(form, q):
    g = apply_noise(triangle_grammar(), q) if q else triangle_grammar()
    rules = g.positive_rules()
    scan = [
        (pos, rule)
        for pos in range(len(form))
        for rule in rules
        if tuple(form[pos : pos + len(rule.lhs)]) == rule.lhs
    ]
    by_first = {}
    for rule in rules:
        by_first.setdefault(rule.lhs[0], []).append(rule)
    assert grammar_mod._match_positions(form, by_first) == scan


def test_trace_replay_reproduces_string():
    g = triangle_grammar()
    for seed in range(50):
        string, trace = derivation_trace(g, seed)
        assert replay_trace(g, trace) == string


def test_trace_replay_with_noise_realizations():
    g = apply_noise(triangle_grammar(), 0.3)
    replayed = 0
    for seed in range(60):
        try:
            string, trace = derivation_trace(g, seed)
        except DeadEndError:
            continue
        assert replay_trace(g, trace) == string
        replayed += 1
    assert replayed > 30


def test_generation_count_invariant():
    g = triangle_grammar()
    for seed in range(1000):
        s = generate(g, seed)
        d, b, c = s.count("d"), s.count("b"), s.count("c")
        assert d >= b >= c


def test_max_steps_exceeded_carries_partial_form():
    from groupintent.grammar import GenerationLimitError

    g = triangle_grammar()
    # One rewrite per step: tiny budgets must trip on long derivations.
    tripped = False
    for seed in range(50):
        try:
            generate(g, seed, max_steps=2)
        except GenerationLimitError as exc:
            assert len(exc.partial) >= 1
            tripped = True
            break
    assert tripped


def test_invalid_grammar_rejected_at_generation():
    g = triangle_grammar()
    probs = dict(g.probs)
    probs["I"] = 0.8  # S group no longer sums to 1
    with pytest.raises(GrammarError):
        generate(g.with_probs(probs), seed=0)


def test_empirical_rule_frequencies_match_probabilities():
    # First rewriting step of the full family: every S rule applies, so the
    # sampled frequencies form a plain multinomial over the configured probs.
    g = triangle_grammar()
    n = 10_000
    counts = {}
    for seed in range(n):
        _, trace = derivation_trace(g, seed)
        counts[trace[0].rule_id] = counts.get(trace[0].rule_id, 0) + 1
    for rule_id in ("I", "II", "IV", "V", "VII", "VIII"):
        p = g.probs[rule_id]
        se = np.sqrt(p * (1 - p) / n)
        assert abs(counts.get(rule_id, 0) / n - p) <= 3 * se


def test_empirical_frequencies_srg_chain():
    # Right-linear restriction: exactly one applicable position per step, so
    # per-step choices between the chain and stop rules are Bernoulli.
    g = restricted(triangle_grammar(), SRG_RULE_IDS)
    p_chain = g.probs["I"]
    n_steps = 0
    n_chain = 0
    for seed in range(4000):
        _, trace = derivation_trace(g, seed)
        for step in trace:
            if step.rule_id in ("I", "II"):
                n_steps += 1
                n_chain += step.rule_id == "I"
    se = np.sqrt(p_chain * (1 - p_chain) / n_steps)
    assert abs(n_chain / n_steps - p_chain) <= 3 * se


# --- JSON round trip --------------------------------------------------------


def test_grammar_json_round_trip():
    g = apply_noise(triangle_grammar(), 0.2)
    back = grammar_from_json(grammar_to_json(g))
    assert back.start == g.start
    assert back.nonterminals == g.nonterminals
    assert back.terminals == g.terminals
    assert {r.id for r in back.rules} == {r.id for r in g.rules}
    for r in g.rules:
        assert back.probs[r.id] == g.probs[r.id]
    assert validate(back) == []


def test_json_rejects_unknown_symbol():
    bad = '{"nonterminals": ["S"], "terminals": ["a"], "start": "S", "rules": [{"id": "r", "lhs": ["S"], "rhs": ["mystery"], "prob": 1.0}]}'
    with pytest.raises(GrammarError):
        grammar_from_json(bad)
