"""Stochastic grammars: representation, validation, class taxonomy, the
noisy-terminal channel, and string sampling by sentential-form rewriting.

Grammars may be regular, context-free, or context-sensitive; the class is a
property of which rules carry positive probability, so a single rule set can
be driven through all three regimes by zeroing probabilities.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

NOISE_NAME = "eps"


class GrammarError(Exception):
    pass


class GenerationLimitError(GrammarError):
    """Rewriting exceeded max_steps; carries the partial sentential form."""

    def __init__(self, message: str, partial: tuple[str, ...]):
        super().__init__(message)
        self.partial = partial


class DeadEndError(GrammarError):
    """No rule applies but nonterminals remain in the sentential form."""


class GrammarClass(enum.Enum):
    SRG = "SRG"
    SCFG = "SCFG"
    SCSG = "SCSG"


@dataclass(frozen=True)
class Symbol:
    kind: str  # "terminal" | "nonterminal" | "noise"
    name: str

    def __post_init__(self):
        if self.kind not in ("terminal", "nonterminal", "noise"):
            raise ValueError(f"unknown symbol kind {self.kind!r}")


def nt(name: str) -> Symbol:
    return Symbol("nonterminal", name)


def t(name: str) -> Symbol:
    return Symbol("terminal", name)


NOISE = Symbol("noise", NOISE_NAME)


@dataclass(frozen=True)
class ProductionRule:
    id: str
    lhs: tuple[Symbol, ...]
    rhs: tuple[Symbol, ...]

    def __post_init__(self):
        object.__setattr__(self, "lhs", tuple(self.lhs))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        if not any(s.kind == "nonterminal" for s in self.lhs):
            raise ValueError(f"rule {self.id}: LHS must contain a nonterminal")

    @property
    def is_noise(self) -> bool:
        return any(s.kind == "noise" for s in self.rhs)


@dataclass(frozen=True, eq=False)
class Grammar:
    nonterminals: frozenset[str]
    terminals: frozenset[str]
    start: str
    rules: tuple[ProductionRule, ...]
    probs: dict[str, float]

    def __post_init__(self):
        object.__setattr__(self, "nonterminals", frozenset(self.nonterminals))
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "probs", dict(self.probs))

    def lhs_groups(self) -> dict[tuple[Symbol, ...], list[ProductionRule]]:
        groups: dict[tuple[Symbol, ...], list[ProductionRule]] = {}
        for rule in self.rules:
            groups.setdefault(rule.lhs, []).append(rule)
        return groups

    def positive_rules(self) -> list[ProductionRule]:
        return [r for r in self.rules if self.probs.get(r.id, 0.0) > 0.0]

    def fingerprint(self) -> tuple:
        """Hashable identity used for memoizing derived structures."""
        return (
            self.start,
            tuple(sorted(self.nonterminals)),
            tuple(sorted(self.terminals)),
            tuple((r.id, r.lhs, r.rhs, self.probs.get(r.id, 0.0)) for r in self.rules),
        )

    def with_probs(self, probs: dict[str, float]) -> "Grammar":
        return Grammar(self.nonterminals, self.terminals, self.start, self.rules, probs)


def validate(g: Grammar) -> list[str]:
    """Return a list of invariant violations (empty list means valid).

    An LHS group must have probabilities summing to 1; a group whose total
    mass is exactly 0 is allowed (its rules are disabled, which is how grammar
    classes are carved out of a shared rule set).
    """
    violations: list[str] = []
    if g.start not in g.nonterminals:
        violations.append(f"start symbol {g.start!r} is not a declared nonterminal")
    seen_ids: set[str] = set()
    for rule in g.rules:
        if rule.id in seen_ids:
            violations.append(f"duplicate rule id {rule.id!r}")
        seen_ids.add(rule.id)
        for sym in rule.lhs + rule.rhs:
            if sym.kind == "nonterminal" and sym.name not in g.nonterminals:
                violations.append(f"rule {rule.id}: undeclared nonterminal {sym.name!r}")
            if sym.kind == "terminal" and sym.name not in g.terminals:
                violations.append(f"rule {rule.id}: undeclared terminal {sym.name!r}")
        if rule.id not in g.probs:
            violations.append(f"rule {rule.id}: no probability assigned")
            continue
        p = g.probs[rule.id]
        if not (0.0 <= p <= 1.0) or not np.isfinite(p):
            violations.append(f"rule {rule.id}: probability {p} outside [0, 1]")
    for lhs, rules in g.lhs_groups().items():
        total = sum(g.probs.get(r.id, 0.0) for r in rules)
        if total != 0.0 and abs(total - 1.0) > 1e-9:
            names = "".join(s.name for s in lhs)
            violations.append(
                f"LHS group {names!r}: probabilities sum to {total:.12g}, expected 1"
            )
    return violations


def classify(g: Grammar) -> GrammarClass:
    """Classify by the positive-probability rules only.

    SRG: every rule is right-linear, A -> aB or A -> a (unit chains A -> B
    are admitted since they preserve regularity).  SCFG: every rule has a
    single-nonterminal LHS.  Otherwise SCSG.
    """
    rules = [r for r in g.positive_rules() if not r.is_noise]

    def is_context_free(r):
        return len(r.lhs) == 1 and r.lhs[0].kind == "nonterminal"

    def is_right_linear(r):
        if not is_context_free(r):
            return False
        kinds = tuple(s.kind for s in r.rhs)
        return kinds in (
            ("terminal",), ("nonterminal",), ("terminal", "nonterminal")
        )

    if all(is_right_linear(r) for r in rules):
        return GrammarClass.SRG
    if all(is_context_free(r) for r in rules):
        return GrammarClass.SCFG
    return GrammarClass.SCSG


def apply_noise(g: Grammar, q: float) -> Grammar:
    """Add (or fold into) a noise rule LHS -> eps in every LHS group with
    probability q, rescaling every original rule by (1 - q).

    Groups with zero total mass are disabled rule sets (how grammar classes
    are carved out); they stay disabled and get no noise rule.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"noise probability must be in [0, 1), got {q}")
    probs = dict(g.probs)
    new_rules = list(g.rules)
    existing = {r.lhs: r for r in g.rules if r.is_noise}
    for lhs, rules in g.lhs_groups().items():
        if sum(probs.get(r.id, 0.0) for r in rules) == 0.0:
            continue
        for r in rules:
            if not r.is_noise:
                probs[r.id] = probs.get(r.id, 0.0) * (1.0 - q)
        if lhs in existing:
            old = probs.get(existing[lhs].id, 0.0)
            probs[existing[lhs].id] = old * (1.0 - q) + q
        else:
            names = "_".join(s.name for s in lhs)
            rule = ProductionRule(id=f"eps@{names}", lhs=lhs, rhs=(NOISE,))
            new_rules.append(rule)
            probs[rule.id] = q
    return Grammar(g.nonterminals, g.terminals, g.start, tuple(new_rules), probs)


def restricted(g: Grammar, active_ids) -> Grammar:
    """Zero out rules not in `active_ids`, renormalizing the surviving mass of
    each LHS group.  Groups left with no mass stay all-zero (disabled)."""
    active = set(active_ids)
    probs = {r.id: (g.probs.get(r.id, 0.0) if r.id in active else 0.0) for r in g.rules}
    for _, rules in g.lhs_groups().items():
        total = sum(probs[r.id] for r in rules)
        if total > 0.0:
            for r in rules:
                probs[r.id] /= total
    return g.with_probs(probs)


@dataclass(frozen=True)
class TraceStep:
    rule_id: str
    position: int
    emitted: str | None = None  # realized terminal, for noise expansions only


def _match_positions(
    form: list[Symbol], rules_by_first: dict[Symbol, list[ProductionRule]]
) -> list[tuple[int, ProductionRule]]:
    """Every (position, rule) whose LHS matches the form there, by position
    and then in rule order; `rules_by_first` lists the rules, in order, under
    the first symbol of their LHS."""
    matches = []
    for pos, sym in enumerate(form):
        for rule in rules_by_first.get(sym, ()):
            k = len(rule.lhs)
            if pos + k <= len(form) and tuple(form[pos : pos + k]) == rule.lhs:
                matches.append((pos, rule))
    return matches


def derivation_trace(
    g: Grammar, seed: int, max_steps: int = 10_000
) -> tuple[tuple[str, ...], tuple[TraceStep, ...]]:
    """Sample a terminal string, recording every rule application.

    Rewriting strategy: collect every (position, rule) pair whose LHS matches
    the sentential form and sample one with probability proportional to the
    rule's configured probability (renormalized over the matches).  Every
    derivation order therefore has positive probability, which is what makes
    the fully sorted context-sensitive strings reachable.  The noise symbol
    is realized as a uniformly random terminal at substitution time.
    """
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    problems = validate(g)
    if problems:
        raise GrammarError("invalid grammar: " + "; ".join(problems))
    rules = g.positive_rules()
    if not rules:
        raise GrammarError("grammar has no positive-probability rules")
    rules_by_first: dict[Symbol, list[ProductionRule]] = {}
    for rule in rules:
        rules_by_first.setdefault(rule.lhs[0], []).append(rule)
    rng = np.random.default_rng(seed)
    terminals_sorted = sorted(g.terminals)
    form: list[Symbol] = [nt(g.start)]
    trace: list[TraceStep] = []
    for _ in range(max_steps):
        if all(s.kind == "terminal" for s in form):
            return tuple(s.name for s in form), tuple(trace)
        matches = _match_positions(form, rules_by_first)
        if not matches:
            raise DeadEndError(
                "no rule applies to sentential form "
                + " ".join(s.name for s in form)
            )
        weights = np.array([g.probs[r.id] for _, r in matches])
        choice = int(rng.choice(len(matches), p=weights / weights.sum()))
        pos, rule = matches[choice]
        emitted: str | None = None
        replacement: list[Symbol] = []
        for sym in rule.rhs:
            if sym.kind == "noise":
                emitted = terminals_sorted[int(rng.integers(len(terminals_sorted)))]
                replacement.append(t(emitted))
            else:
                replacement.append(sym)
        form[pos : pos + len(rule.lhs)] = replacement
        trace.append(TraceStep(rule_id=rule.id, position=pos, emitted=emitted))
    raise GenerationLimitError(
        f"rewriting did not terminate within {max_steps} steps",
        partial=tuple(s.name for s in form),
    )


def generate(g: Grammar, seed: int, max_steps: int = 10_000) -> tuple[str, ...]:
    """Sample a terminal string (see derivation_trace for the semantics)."""
    string, _ = derivation_trace(g, seed, max_steps)
    return string


def grammar_to_json(g: Grammar) -> str:
    return json.dumps(
        {
            "nonterminals": sorted(g.nonterminals),
            "terminals": sorted(g.terminals),
            "start": g.start,
            "rules": [
                {
                    "id": r.id,
                    "lhs": [s.name for s in r.lhs],
                    "rhs": [s.name for s in r.rhs],
                    "prob": g.probs.get(r.id, 0.0),
                }
                for r in g.rules
            ],
        },
        indent=2,
        sort_keys=True,
    )


def grammar_from_json(text: str) -> Grammar:
    obj = json.loads(text)
    nonterms = frozenset(obj["nonterminals"])
    terms = frozenset(obj["terminals"])

    def resolve(name: str) -> Symbol:
        if name in nonterms:
            return nt(name)
        if name in terms:
            return t(name)
        if name == NOISE_NAME:
            return NOISE
        raise GrammarError(f"symbol {name!r} is neither declared nor the noise symbol")

    rules = []
    probs = {}
    for spec in obj["rules"]:
        rule = ProductionRule(
            id=spec["id"],
            lhs=tuple(resolve(s) for s in spec["lhs"]),
            rhs=tuple(resolve(s) for s in spec["rhs"]),
        )
        rules.append(rule)
        probs[rule.id] = float(spec["prob"])
    return Grammar(nonterms, terms, obj["start"], tuple(rules), probs)


# ---------------------------------------------------------------------------
# Built-in grammar family
# ---------------------------------------------------------------------------
# A three-player rule set generating line (d^n), corner (d^n b^m), and
# triangle-closing (d b c balanced) motion strings.  Rule "IXb" (bB -> bb)
# completes the b-conversion chain: without it no string with two or more b's
# is derivable once rule VI is switched off.

TRIANGLE_RULE_SPECS: tuple[tuple[str, tuple[Symbol, ...], tuple[Symbol, ...]], ...] = (
    ("I", (nt("S"),), (t("d"), nt("S"))),
    ("II", (nt("S"),), (nt("D"),)),
    ("III", (nt("D"),), (t("d"),)),
    ("IV", (nt("S"),), (t("d"), nt("S"), nt("B"))),
    ("V", (nt("S"),), (t("d"), nt("B"))),
    ("VI", (nt("B"),), (t("b"),)),
    ("VII", (nt("S"),), (t("d"), nt("S"), nt("B"), nt("C"))),
    ("VIII", (nt("S"),), (t("d"), nt("B"), nt("C"))),
    ("IX", (t("d"), nt("B")), (t("d"), t("b"))),
    ("IXb", (t("b"), nt("B")), (t("b"), t("b"))),
    ("X", (t("b"), nt("C")), (t("b"), t("c"))),
    ("XI", (nt("C"), nt("B")), (nt("B"), nt("C"))),
    ("XII", (t("c"), nt("C")), (t("c"), t("c"))),
)

SRG_RULE_IDS = ("I", "II", "III")
SCFG_RULE_IDS = ("I", "II", "III", "IV", "V", "VI")


def triangle_grammar(probs: dict[str, float] | None = None) -> Grammar:
    """The built-in three-player family; uniform per-group probabilities by
    default."""
    rules = tuple(ProductionRule(i, lhs, rhs) for i, lhs, rhs in TRIANGLE_RULE_SPECS)
    g = Grammar(
        nonterminals=frozenset({"S", "D", "B", "C"}),
        terminals=frozenset({"d", "b", "c"}),
        start="S",
        rules=rules,
        probs={},
    )
    if probs is None:
        probs = {}
        for _, group in g.lhs_groups().items():
            for r in group:
                probs[r.id] = 1.0 / len(group)
    return g.with_probs(probs)


def triangle_assignment() -> dict[str, frozenset[int]]:
    """Default player ownership: player 0 the linear rules, player 1 the
    corner rules, player 2 the closing rules."""
    owners = {
        "I": 0, "II": 0, "III": 0,
        "IV": 1, "V": 1, "VI": 1,
        "VII": 2, "VIII": 2, "IX": 2, "IXb": 2, "X": 2, "XI": 2, "XII": 2,
    }
    return {rule_id: frozenset({player}) for rule_id, player in owners.items()}


def triangle_direction_map() -> dict[str, str]:
    """Letter terminals to velocity terminals (right, up-left, down-left)."""
    return {"d": "l1", "b": "l4", "c": "-l2"}
