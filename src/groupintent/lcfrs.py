"""Weighted LCFRS (fan-out <= 2) chart parsing.

A linear context-free rewriting system rule rewrites a nonterminal covering
up to two separate spans.  Yield templates describe how a rule assembles its
component spans out of terminals and the components of its children, which is
what lets discontinuous constituents (a b ... matched with a later c) carry
polynomial-time Viterbi parsing.

Grammars whose positive rules are all context-free convert generically; the
built-in context-sensitive family (`grammar.TRIANGLE_RULE_SPECS`) converts
through a hand-built fan-out-2 table, matched by rule id.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .grammar import TRIANGLE_RULE_SPECS, Grammar

# Template items: ("t", terminal) consumes one token, ("v", child, comp)
# splices in a child component.
TItem = tuple

Spans = tuple[tuple[int, int], ...]


class ParseError(Exception):
    """The string is not in the grammar's language."""


class UnsupportedGrammarError(Exception):
    """The grammar cannot be converted to a fan-out-2 LCFRS."""


@dataclass(frozen=True)
class LcfrsRule:
    lhs: str
    rhs: tuple[str, ...]
    templates: tuple[tuple[TItem, ...], ...]
    weight: float
    tags: tuple[str, ...]


@dataclass(frozen=True)
class Lcfrs:
    start: str
    rules: tuple[LcfrsRule, ...]
    # rule-id -> LHS-group index of the source grammar, for node features
    family_of_tag: dict[str, int]
    n_families: int

    @cached_property
    def tables(self) -> tuple[tuple, dict, dict]:
        """What every parse under this LCFRS shares, built at its first
        parse: the (rule, log-weight) of each positive leaf rule, and the
        plans and signatures `_sibling_plans` compiles from the positive
        rules."""
        positive = [r for r in self.rules if r.weight > 0.0]
        leaves = tuple((r, math.log(r.weight)) for r in positive if not r.rhs)
        return (leaves, *_sibling_plans(positive))


@dataclass
class _Entry:
    logw: float
    tagseq: tuple[str, ...]
    rule: LcfrsRule
    children: tuple
    terminal_positions: tuple[tuple[int, str], ...]


def _terminal_anchor_options(template, tokens):
    """All intervals where a pure-terminal template matches the tokens."""
    names = [piece[1] for piece in template]
    k = len(names)
    out = []
    for start in range(len(tokens) - k + 1):
        if tokens[start : start + k] == names:
            out.append((start, start + k))
    return out


@dataclass(frozen=True)
class _CompiledRule:
    """A rule with its log-weight and each component template split at its
    first variable: (child, component) of that anchor, the pieces before it
    in reverse, and the pieces after it.  A piece is (terminal, child,
    component), with terminal None for a child component."""

    rule: LcfrsRule
    logw: float
    components: tuple[tuple[int, int, tuple, tuple], ...]


def _compile(rule: LcfrsRule) -> _CompiledRule:
    components = []
    for template in rule.templates:
        var_idx = next((i for i, p in enumerate(template) if p[0] == "v"), None)
        if var_idx is None:
            raise AssertionError("non-leaf rule with variable-free component")
        pieces = [(p[1], 0, 0) if p[0] == "t" else (None, p[1], p[2])
                  for p in template]
        _, ci, cj = template[var_idx]
        components.append((ci, cj, tuple(reversed(pieces[:var_idx])),
                           tuple(pieces[var_idx + 1 :])))
    return _CompiledRule(rule=rule, logw=math.log(rule.weight),
                         components=tuple(components))


def _instantiate(compiled: _CompiledRule, child_spans, tokens):
    """Compute LHS spans for fixed child spans; None if inconsistent.

    Each component template is anchored at its first variable, then walked
    outward; terminals must match the tokens and child components must abut
    exactly.  Templates without variables only occur in leaf rules.
    """
    n = len(tokens)
    comp_spans = []
    positions: list[tuple[int, str]] = []
    for ci, cj, left, right in compiled.components:
        start, end = child_spans[ci][cj]
        for terminal, c, j in left:
            if terminal is None:
                s2, e2 = child_spans[c][j]
                if e2 != start:
                    return None
                start = s2
            else:
                start -= 1
                if start < 0 or tokens[start] != terminal:
                    return None
                positions.append((start, terminal))
        for terminal, c, j in right:
            if terminal is None:
                s2, e2 = child_spans[c][j]
                if s2 != end:
                    return None
                end = e2
            else:
                if end >= n or tokens[end] != terminal:
                    return None
                positions.append((end, terminal))
                end += 1
        comp_spans.append((start, end))
    # Components must be ordered and disjoint.
    for (_, e1), (s2, _) in zip(comp_spans, comp_spans[1:]):
        if e1 > s2:
            return None
    return tuple(comp_spans), tuple(sorted(positions))


def _sibling_plans(rules):
    """Per child nonterminal, its (compiled rule, popped slot, checks,
    lookups) plans, and per nonterminal, the signatures its final items are
    indexed under.  The checks are `_popped_checks`'.

    Consecutive variables of a template with g terminals between them must
    abut across the gap: start of the right one = end of the left one + g.
    Starting from the popped slot, each sibling in turn is looked up under
    every such boundary it shares with the popped item or an earlier sibling.
    A lookup is (sibling, signature, sources): the signature lists the
    sibling's (component, side) boundaries, side 0 = start and 1 = end, and
    each source (child, component, side, offset) gives one boundary value
    from a child already fixed.
    """
    plans: dict[str, list] = {}
    signatures: dict[str, set] = {}
    for rule in rules:
        if not rule.rhs:
            continue
        compiled = _compile(rule)
        links = []
        for template in rule.templates:
            prev, gap = None, 0
            for piece in template:
                if piece[0] == "t":
                    gap += 1
                    continue
                if prev is not None:
                    links.append((prev, piece[1:], gap))
                prev, gap = piece[1:], 0
        for slot, child_nt in enumerate(rule.rhs):
            checks = _popped_checks(rule, slot, links)
            fixed = {slot}
            lookups = []
            while len(fixed) < len(rule.rhs):
                for sib in range(len(rule.rhs)):
                    if sib in fixed:
                        continue
                    bounds = []
                    for (a, x), (b, y), gap in links:
                        if b == sib and a in fixed:
                            bounds.append(((y, 0), (a, x, 1, gap)))
                        elif a == sib and b in fixed:
                            bounds.append(((x, 1), (b, y, 0, -gap)))
                    if bounds:
                        break
                else:
                    raise AssertionError(
                        f"rule {rule.tags}: a sibling of slot {slot} touches "
                        "no boundary of the popped item or an earlier sibling"
                    )
                bounds.sort()
                signature = tuple(bound for bound, _ in bounds)
                sources = tuple(source for _, source in bounds)
                lookups.append((sib, signature, sources))
                signatures.setdefault(rule.rhs[sib], set()).add(signature)
                fixed.add(sib)
            plans.setdefault(child_nt, []).append(
                (compiled, slot, checks, tuple(lookups)))
    return plans, {nt: tuple(sorted(sigs)) for nt, sigs in signatures.items()}


def _popped_checks(rule, slot, links):
    """What the popped item must meet on its own for the rule to apply:
    (component, component, gap) for two of its components linked across a
    gap, and (component, side, offset, terminal) for each token next to one
    of its components with only terminals in between.  `_instantiate`
    checks each of these too, so a popped item that fails one is skipped
    before its siblings are looked up, without losing a derivation."""
    self_links = tuple((x, y, gap) for (a, x), (b, y), gap in links
                       if a == b == slot)
    terminals = []
    for template in rule.templates:
        for i, piece in enumerate(template):
            if piece[0] != "v" or piece[1] != slot:
                continue
            j = i - 1
            while j >= 0 and template[j][0] == "t":
                terminals.append((piece[2], 0, j - i, template[j][1]))
                j -= 1
            j = i + 1
            while j < len(template) and template[j][0] == "t":
                terminals.append((piece[2], 1, j - i - 1, template[j][1]))
                j += 1
    return self_links, tuple(terminals)


def _fits(spans, tokens, checks) -> bool:
    self_links, terminals = checks
    for x, y, gap in self_links:
        if spans[y][0] != spans[x][1] + gap:
            return False
    n = len(tokens)
    for comp, side, offset, terminal in terminals:
        pos = spans[comp][side] + offset
        if pos < 0 or pos >= n or tokens[pos] != terminal:
            return False
    return True


def parse_chart(lcfrs: Lcfrs, tokens: list[str]):
    """Viterbi chart over (nonterminal, spans) items.

    Items leave a heap agenda shortest total yield first, heaviest first
    within a length.  A child yields at least one token and a unit rule
    weighs <= 1, so every derivation of an item is built from items popped
    before it: an item is final when popped and is combined once, with final
    items only.

    Final items are indexed by span boundary (Kallmeyer & Maier 2013).  For
    each rule and popped slot, every sibling is looked up by all of its
    component starts and ends that sit next to a component of the popped
    item or of an earlier sibling, with only terminals between them; a
    fan-out-2 sibling of the triangle table is thus keyed on both of its
    boundaries, and a third CFG child on its chain neighbour.
    `_instantiate` accepts a combination only if consecutive pieces of every
    template abut, which forces each of those equalities, so the index skips
    only combinations it would reject and no derivation is lost.  For the
    same reason a popped item is first held to what a rule asks of it alone
    (`_popped_checks`), and a rule it fails is not tried.  The compiled
    rules, plans and checks are built once per LCFRS (`Lcfrs.tables`).

    Ties in weight (within 1e-12 in log space) break toward the
    lexicographically smallest pre-order rule-id sequence, which makes golden
    trees deterministic.
    """
    leaves, plans, signatures = lcfrs.tables
    chart: dict[tuple[str, Spans], _Entry] = {}
    popped: set[tuple[str, Spans]] = set()
    agenda: list[tuple[int, float, tuple[str, Spans]]] = []

    def offer(nt, spans, entry):
        key = (nt, spans)
        old = chart.get(key)
        if old is not None:
            better = entry.logw > old.logw + 1e-12
            tied_better = (
                abs(entry.logw - old.logw) <= 1e-12 and entry.tagseq < old.tagseq
            )
            if not (better or tied_better):
                return
        chart[key] = entry
        heapq.heappush(agenda, (sum(e - s for s, e in spans), -entry.logw, key))

    # Leaves: rules with no children enumerate terminal anchors per component.
    for rule, logw in leaves:
        options = [_terminal_anchor_options(tpl, tokens) for tpl in rule.templates]
        for combo in product(*options):
            if any(e1 > s2 for (_, e1), (s2, _) in zip(combo, combo[1:])):
                continue
            positions = []
            for (s, _), tpl in zip(combo, rule.templates):
                for off, piece in enumerate(tpl):
                    positions.append((s + off, piece[1]))
            offer(
                rule.lhs,
                tuple(combo),
                _Entry(
                    logw=logw,
                    tagseq=rule.tags,
                    rule=rule,
                    children=(),
                    terminal_positions=tuple(sorted(positions)),
                ),
            )

    # (nonterminal, signature, boundary values) -> final spans, in pop order.
    index: dict[tuple, list[Spans]] = {}

    while agenda:
        key = heapq.heappop(agenda)[2]
        if key in popped:
            continue
        popped.add(key)
        nt, spans = key
        for signature in signatures.get(nt, ()):
            values = tuple(spans[comp][side] for comp, side in signature)
            index.setdefault((nt, signature, values), []).append(spans)
        for compiled, slot, checks, lookups in plans.get(nt, ()):
            if not _fits(spans, tokens, checks):
                continue
            rule = compiled.rule
            if lookups:
                combos = [[spans if j == slot else None for j in range(len(rule.rhs))]]
                for sib, signature, sources in lookups:
                    combos = [
                        combo[:sib] + [sib_spans] + combo[sib + 1 :]
                        for combo in combos
                        for sib_spans in index.get((rule.rhs[sib], signature, tuple(
                            combo[c][comp][side] + off for c, comp, side, off in sources
                        )), ())
                    ]
                combos = map(tuple, combos)
            else:
                combos = ((spans,),)
            for combo in combos:
                inst = _instantiate(compiled, combo, tokens)
                if inst is None:
                    continue
                lhs_spans, positions = inst
                entries = [chart[(rule.rhs[j], combo[j])] for j in range(len(combo))]
                logw = compiled.logw + sum(e.logw for e in entries)
                tagseq = rule.tags + tuple(
                    tag for e in entries for tag in e.tagseq
                )
                offer(
                    rule.lhs,
                    lhs_spans,
                    _Entry(
                        logw=logw,
                        tagseq=tagseq,
                        rule=rule,
                        children=tuple(
                            (rule.rhs[j], combo[j]) for j in range(len(combo))
                        ),
                        terminal_positions=positions,
                    ),
                )
    return chart


def best_parse(lcfrs: Lcfrs, tokens: list[str]):
    """Return (entry, chart) for the full-span start item, or raise."""
    if not tokens:
        raise ParseError("cannot parse an empty string")
    chart = parse_chart(lcfrs, tokens)
    goal = (lcfrs.start, ((0, len(tokens)),))
    if goal not in chart:
        raise ParseError(
            "string %r is not in the grammar's language" % " ".join(tokens)
        )
    return chart[goal], chart


# ---------------------------------------------------------------------------
# Grammar -> LCFRS conversion
# ---------------------------------------------------------------------------


def _family_map(g: Grammar) -> tuple[dict[str, int], int]:
    families: dict[str, int] = {}
    order: list[tuple] = []
    for rule in g.rules:
        if rule.lhs not in order:
            order.append(rule.lhs)
        families[rule.id] = order.index(rule.lhs)
    return families, len(order)


def _generic_cfg_lcfrs(g: Grammar) -> Lcfrs:
    rules = []
    for rule in g.positive_rules():
        if rule.is_noise:
            continue
        if len(rule.rhs) == 0:
            raise UnsupportedGrammarError(
                f"rule {rule.id}: empty right-hand sides are not supported"
            )
        template = []
        rhs_nts = []
        for sym in rule.rhs:
            if sym.kind == "terminal":
                template.append(("t", sym.name))
            else:
                template.append(("v", len(rhs_nts), 0))
                rhs_nts.append(sym.name)
        if len(rhs_nts) > 3:
            raise UnsupportedGrammarError(
                f"rule {rule.id}: more than 3 nonterminals on the RHS"
            )
        rules.append(
            LcfrsRule(
                lhs=rule.lhs[0].name,
                rhs=tuple(rhs_nts),
                templates=(tuple(template),),
                weight=g.probs[rule.id],
                tags=(rule.id,),
            )
        )
    families, n_fam = _family_map(g)
    return Lcfrs(start=g.start, rules=tuple(rules), family_of_tag=families,
                 n_families=n_fam)


# The built-in family, id -> (LHS, RHS), as `grammar.py` writes it down.
_TRIANGLE_SPECS = {i: (lhs, rhs) for i, lhs, rhs in TRIANGLE_RULE_SPECS}


def _is_triangle_family(positive) -> bool:
    """Whether every rule is the built-in family's rule of the same id, and
    all five of its context-sensitive rules are among them."""
    ids = {r.id for r in positive}
    return all(_TRIANGLE_SPECS.get(r.id) == (r.lhs, r.rhs) for r in positive) and all(
        i in ids for i, (lhs, _) in _TRIANGLE_SPECS.items() if len(lhs) > 1
    )


def _triangle_lcfrs(g: Grammar) -> Lcfrs:
    """Fan-out-2 conversion table for the built-in family.

    TOP covers whole strings; ZONE covers (d-block, letter-zone) fragments as
    two components.  Swap and boundary-conversion rules sit alone in their LHS
    groups, so their normalized probability is 1 and omitting them from rule
    weights preserves derivation scores.  A rule of weight 0 is left out.
    """
    p = lambda rule_id: g.probs.get(rule_id, 0.0)
    d, b, c = "d", "b", "c"
    T = lambda x: ("t", x)
    V = lambda i, j: ("v", i, j)
    rules: list[LcfrsRule] = []

    def add(lhs, rhs, templates, weight, tags):
        if weight > 0.0:
            rules.append(
                LcfrsRule(lhs=lhs, rhs=tuple(rhs),
                          templates=tuple(tuple(tpl) for tpl in templates),
                          weight=weight, tags=tuple(tags))
            )

    # S -> d S
    add("TOP", ["TOP"], [[T(d), V(0, 0)]], p("I"), ["I"])
    # S -> D, D -> d
    w = p("II") * p("III")
    add("TOP", [], [[T(d)]], w, ["II", "III"])
    add("TOP", ["ZONE"], [[V(0, 0), T(d), V(0, 1)]], w, ["II", "III"])
    # S -> d B
    add("TOP", [], [[T(d), T(b)]], p("V"), ["V"])
    add("TOP", ["ZONE"], [[V(0, 0), T(d), T(b), V(0, 1)]], p("V"), ["V"])
    # S -> d B C
    w = p("VIII")
    add("TOP", [], [[T(d), T(b), T(c)]], w, ["VIII"])
    add("TOP", ["ZONE"], [[V(0, 0), T(d), T(b), V(0, 1), T(c)]], w, ["VIII"])
    add("TOP", ["ZONE"], [[V(0, 0), T(d), T(b), T(c), V(0, 1)]], w, ["VIII"])
    add("TOP", ["ZONE", "ZONE"],
        [[V(1, 0), V(0, 0), T(d), T(b), V(0, 1), T(c), V(1, 1)]], w, ["VIII"])
    # S -> d S B
    add("ZONE", [], [[T(d)], [T(b)]], p("IV"), ["IV"])
    add("ZONE", ["ZONE"], [[V(0, 0), T(d)], [T(b), V(0, 1)]], p("IV"), ["IV"])
    # S -> d S B C
    w = p("VII")
    add("ZONE", [], [[T(d)], [T(b), T(c)]], w, ["VII"])
    add("ZONE", ["ZONE"], [[V(0, 0), T(d)], [T(b), V(0, 1), T(c)]], w, ["VII"])
    add("ZONE", ["ZONE"], [[V(0, 0), T(d)], [T(b), T(c), V(0, 1)]], w, ["VII"])
    add("ZONE", ["ZONE", "ZONE"],
        [[V(1, 0), V(0, 0), T(d)], [T(b), V(0, 1), T(c), V(1, 1)]], w, ["VII"])
    families, n_fam = _family_map(g)
    return Lcfrs(start="TOP", rules=tuple(rules), family_of_tag=families,
                 n_families=n_fam)


def grammar_to_lcfrs(g: Grammar) -> Lcfrs:
    """Convert a grammar's positive rules to a parseable LCFRS.

    Noise rules are generation-only and are skipped: the parser covers the
    uncorrupted language.  A context-sensitive rule set must be the built-in
    family's, matched by rule id, LHS and RHS, with all five of its
    context-sensitive rules; otherwise the grammar is rejected.
    """
    positive = [r for r in g.positive_rules() if not r.is_noise]
    if all(len(r.lhs) == 1 for r in positive):
        return _generic_cfg_lcfrs(g)
    if not _is_triangle_family(positive):
        offending = [r.id for r in positive if len(r.lhs) > 1]
        raise UnsupportedGrammarError(
            "no fan-out-2 conversion table covers context-sensitive rules "
            f"{offending}"
        )
    return _triangle_lcfrs(g)


_conversion_cache: dict[tuple, Lcfrs] = {}


def lcfrs_for(g: Grammar) -> Lcfrs:
    key = g.fingerprint()
    if key not in _conversion_cache:
        if len(_conversion_cache) > 128:
            _conversion_cache.clear()
        _conversion_cache[key] = grammar_to_lcfrs(g)
    return _conversion_cache[key]
