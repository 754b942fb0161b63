"""Weighted LCFRS (fan-out <= 2) chart parsing.

A linear context-free rewriting system rule rewrites a nonterminal covering
up to two separate spans.  Yield templates describe how a rule assembles its
component spans out of terminals and the components of its children, which is
what lets discontinuous constituents (a b ... matched with a later c) carry
polynomial-time Viterbi parsing.

Grammars whose positive rules are all context-free convert generically; the
built-in context-sensitive family converts through a hand-built fan-out-2
table matched structurally against the rule set.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import product

from .grammar import Grammar

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

    @property
    def fanout(self) -> int:
        return len(self.templates)


@dataclass(frozen=True)
class Lcfrs:
    start: str
    rules: tuple[LcfrsRule, ...]
    # rule-id -> LHS-group index of the source grammar, for node features
    family_of_tag: dict[str, int]
    n_families: int


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


def _instantiate(rule, child_spans, tokens):
    """Compute LHS spans for fixed child spans; None if inconsistent.

    Each component template is anchored at its first variable, then walked
    outward; terminals must match the tokens and child components must abut
    exactly.  Templates without variables only occur in leaf rules.
    """
    n = len(tokens)
    comp_spans = []
    positions: list[tuple[int, str]] = []
    for template in rule.templates:
        var_idx = next((i for i, p in enumerate(template) if p[0] == "v"), None)
        if var_idx is None:
            raise AssertionError("non-leaf rule with variable-free component")
        _, ci, cj = template[var_idx]
        start, end = child_spans[ci][cj]
        local: list[tuple[int, str]] = []
        ok = True
        for piece in reversed(template[:var_idx]):
            if piece[0] == "t":
                start -= 1
                if start < 0 or tokens[start] != piece[1]:
                    ok = False
                    break
                local.append((start, piece[1]))
            else:
                s2, e2 = child_spans[piece[1]][piece[2]]
                if e2 != start:
                    ok = False
                    break
                start = s2
        if not ok:
            return None
        for piece in template[var_idx + 1 :]:
            if piece[0] == "t":
                if end >= n or tokens[end] != piece[1]:
                    ok = False
                    break
                local.append((end, piece[1]))
                end += 1
            else:
                s2, e2 = child_spans[piece[1]][piece[2]]
                if s2 != end:
                    ok = False
                    break
                end = e2
        if not ok:
            return None
        comp_spans.append((start, end))
        positions.extend(local)
    # Components must be ordered and disjoint.
    for (_, e1), (s2, _) in zip(comp_spans, comp_spans[1:]):
        if e1 > s2:
            return None
    return tuple(comp_spans), tuple(sorted(positions))


def _sibling_plans(rules):
    """Per child nonterminal, its (rule, popped slot, lookups) plans, and per
    nonterminal, the signatures its final items are indexed under.

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
            plans.setdefault(child_nt, []).append((rule, slot, lookups))
    return plans, signatures


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
    only combinations it would reject and no derivation is lost.

    Ties in weight (within 1e-12 in log space) break toward the
    lexicographically smallest pre-order rule-id sequence, which makes golden
    trees deterministic.
    """
    rules = [r for r in lcfrs.rules if r.weight > 0.0]
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
    for rule in rules:
        if rule.rhs:
            continue
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
                    logw=math.log(rule.weight),
                    tagseq=rule.tags,
                    rule=rule,
                    children=(),
                    terminal_positions=tuple(sorted(positions)),
                ),
            )

    plans, signatures = _sibling_plans(rules)
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
        for rule, slot, lookups in plans.get(nt, ()):
            combos = [[spans if j == slot else None for j in range(len(rule.rhs))]]
            for sib, signature, sources in lookups:
                combos = [
                    combo[:sib] + [sib_spans] + combo[sib + 1 :]
                    for combo in combos
                    for sib_spans in index.get((rule.rhs[sib], signature, tuple(
                        combo[c][comp][side] + off for c, comp, side, off in sources
                    )), ())
                ]
            for combo in map(tuple, combos):
                inst = _instantiate(rule, combo, tokens)
                if inst is None:
                    continue
                lhs_spans, positions = inst
                entries = [chart[(rule.rhs[j], combo[j])] for j in range(len(combo))]
                logw = math.log(rule.weight) + sum(e.logw for e in entries)
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


@dataclass(frozen=True)
class TriangleShape:
    """Structural roles of the built-in family's rules (ids, or None)."""

    d: str
    b: str
    c: str
    chain_plain: str | None    # S -> d S
    chain_stop: str | None     # S -> M
    chain_stop_unit: str | None  # M -> d
    single: str | None         # S -> d S B
    single_stop: str | None    # S -> d B
    pair: str | None           # S -> d S B C
    pair_stop: str | None      # S -> d B C
    unit_b: str | None         # B -> b
    conv_db: str               # d B -> d b
    conv_bb: str               # b B -> b b
    conv_bc: str               # b C -> b c
    conv_cc: str               # c C -> c c
    swap: str                  # C B -> B C


def match_triangle(g: Grammar) -> TriangleShape | None:
    """Structurally identify the shipped context-sensitive family.

    Anchors on the five context-sensitive rewrite shapes (the CB -> BC swap
    plus the four boundary conversions); returns None when they are absent,
    incomplete, or any extra context-sensitive rule exists.
    """
    positive = [r for r in g.positive_rules() if not r.is_noise]
    cs = [r for r in positive if len(r.lhs) > 1]
    if len(cs) != 5:
        return None
    swap = None
    boundary = []   # x Y -> x z with z != x
    propagation = []  # x Y -> x x
    for r in cs:
        kinds_l = tuple(s.kind for s in r.lhs)
        kinds_r = tuple(s.kind for s in r.rhs)
        if kinds_l == ("nonterminal", "nonterminal") and r.rhs == (r.lhs[1], r.lhs[0]):
            if swap is not None:
                return None
            swap = r
        elif (kinds_l == ("terminal", "nonterminal")
              and kinds_r == ("terminal", "terminal") and r.rhs[0] == r.lhs[0]):
            if r.rhs[1].name == r.lhs[0].name:
                propagation.append(r)
            else:
                boundary.append(r)
        else:
            return None
    if swap is None or len(boundary) != 2 or len(propagation) != 2:
        return None
    c_nt, b_nt = swap.lhs[0], swap.lhs[1]

    def pick(rules, nonterminal):
        hits = [r for r in rules if r.lhs[1] == nonterminal]
        return hits[0] if len(hits) == 1 else None

    conv_db = pick(boundary, b_nt)
    conv_bc = pick(boundary, c_nt)
    conv_bb = pick(propagation, b_nt)
    conv_cc = pick(propagation, c_nt)
    if None in (conv_db, conv_bc, conv_bb, conv_cc):
        return None
    d_t, b_t = conv_db.lhs[0].name, conv_db.rhs[1].name
    c_t = conv_bc.rhs[1].name
    if conv_bc.lhs[0].name != b_t:
        return None
    if conv_bb.lhs[0].name != b_t or conv_cc.lhs[0].name != c_t:
        return None
    if len({d_t, b_t, c_t}) != 3:
        return None

    start = g.start
    roles: dict[str, str | None] = {
        "chain_plain": None, "chain_stop": None, "single": None,
        "single_stop": None, "pair": None, "pair_stop": None,
    }
    stop_nt: str | None = None
    unit_terminal: dict[str, tuple[str, str]] = {}
    for r in positive:
        if len(r.lhs) != 1:
            continue
        lhs = r.lhs[0].name
        names = tuple(s.name for s in r.rhs)
        kinds = tuple(s.kind for s in r.rhs)
        if lhs == start:
            if kinds == ("terminal", "nonterminal") and names == (d_t, start):
                roles["chain_plain"] = r.id
            elif kinds == ("nonterminal",) and names[0] != start:
                roles["chain_stop"] = r.id
                stop_nt = names[0]
            elif (kinds == ("terminal", "nonterminal", "nonterminal")
                  and names == (d_t, start, b_nt.name)):
                roles["single"] = r.id
            elif kinds == ("terminal", "nonterminal") and names == (d_t, b_nt.name):
                roles["single_stop"] = r.id
            elif (kinds
                  == ("terminal", "nonterminal", "nonterminal", "nonterminal")
                  and names == (d_t, start, b_nt.name, c_nt.name)):
                roles["pair"] = r.id
            elif (kinds == ("terminal", "nonterminal", "nonterminal")
                  and names == (d_t, b_nt.name, c_nt.name)):
                roles["pair_stop"] = r.id
            else:
                return None
        elif kinds == ("terminal",):
            unit_terminal[lhs] = (r.id, names[0])
        else:
            return None
    chain_stop_unit = None
    if stop_nt is not None:
        hit = unit_terminal.get(stop_nt)
        if hit is None or hit[1] != d_t:
            return None
        chain_stop_unit = hit[0]
    unit_b = None
    if b_nt.name in unit_terminal and unit_terminal[b_nt.name][1] == b_t:
        unit_b = unit_terminal[b_nt.name][0]
    return TriangleShape(
        d=d_t, b=b_t, c=c_t,
        chain_plain=roles["chain_plain"],
        chain_stop=roles["chain_stop"],
        chain_stop_unit=chain_stop_unit,
        single=roles["single"],
        single_stop=roles["single_stop"],
        pair=roles["pair"],
        pair_stop=roles["pair_stop"],
        unit_b=unit_b,
        conv_db=conv_db.id, conv_bb=conv_bb.id,
        conv_bc=conv_bc.id, conv_cc=conv_cc.id,
        swap=swap.id,
    )


def _triangle_lcfrs(g: Grammar, shape: TriangleShape) -> Lcfrs:
    """Fan-out-2 conversion table for the built-in family.

    TOP covers whole strings; ZONE covers (d-block, letter-zone) fragments as
    two components.  Swap and boundary-conversion rules sit alone in their LHS
    groups, so their normalized probability is 1 and omitting them from rule
    weights preserves derivation scores.
    """
    p = g.probs
    d, b, c = shape.d, shape.b, shape.c
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

    if shape.chain_plain:
        add("TOP", ["TOP"], [[T(d), V(0, 0)]],
            p[shape.chain_plain], [shape.chain_plain])
    if shape.chain_stop and shape.chain_stop_unit:
        w = p[shape.chain_stop] * p[shape.chain_stop_unit]
        tags = [shape.chain_stop, shape.chain_stop_unit]
        add("TOP", [], [[T(d)]], w, tags)
        add("TOP", ["ZONE"], [[V(0, 0), T(d), V(0, 1)]], w, tags)
    if shape.single_stop:
        w = p[shape.single_stop]
        add("TOP", [], [[T(d), T(b)]], w, [shape.single_stop])
        add("TOP", ["ZONE"], [[V(0, 0), T(d), T(b), V(0, 1)]], w, [shape.single_stop])
    if shape.pair_stop:
        w = p[shape.pair_stop]
        add("TOP", [], [[T(d), T(b), T(c)]], w, [shape.pair_stop])
        add("TOP", ["ZONE"], [[V(0, 0), T(d), T(b), V(0, 1), T(c)]],
            w, [shape.pair_stop])
        add("TOP", ["ZONE"], [[V(0, 0), T(d), T(b), T(c), V(0, 1)]],
            w, [shape.pair_stop])
        add("TOP", ["ZONE", "ZONE"],
            [[V(1, 0), V(0, 0), T(d), T(b), V(0, 1), T(c), V(1, 1)]],
            w, [shape.pair_stop])
    if shape.single:
        w = p[shape.single]
        add("ZONE", [], [[T(d)], [T(b)]], w, [shape.single])
        add("ZONE", ["ZONE"], [[V(0, 0), T(d)], [T(b), V(0, 1)]], w, [shape.single])
    if shape.pair:
        w = p[shape.pair]
        add("ZONE", [], [[T(d)], [T(b), T(c)]], w, [shape.pair])
        add("ZONE", ["ZONE"], [[V(0, 0), T(d)], [T(b), V(0, 1), T(c)]],
            w, [shape.pair])
        add("ZONE", ["ZONE"], [[V(0, 0), T(d)], [T(b), T(c), V(0, 1)]],
            w, [shape.pair])
        add("ZONE", ["ZONE", "ZONE"],
            [[V(1, 0), V(0, 0), T(d)], [T(b), V(0, 1), T(c), V(1, 1)]],
            w, [shape.pair])
    families, n_fam = _family_map(g)
    return Lcfrs(start="TOP", rules=tuple(rules), family_of_tag=families,
                 n_families=n_fam)


def grammar_to_lcfrs(g: Grammar) -> Lcfrs:
    """Convert a grammar's positive rules to a parseable LCFRS.

    Noise rules are generation-only and are skipped: the parser covers the
    uncorrupted language.  Context-sensitive rule sets must match the shipped
    conversion table, otherwise the grammar is rejected.
    """
    positive = [r for r in g.positive_rules() if not r.is_noise]
    if all(len(r.lhs) == 1 for r in positive):
        return _generic_cfg_lcfrs(g)
    shape = match_triangle(g)
    if shape is None:
        offending = [r.id for r in positive if len(r.lhs) > 1]
        raise UnsupportedGrammarError(
            "no fan-out-2 conversion table covers context-sensitive rules "
            f"{offending}"
        )
    return _triangle_lcfrs(g, shape)


_conversion_cache: dict[tuple, Lcfrs] = {}


def lcfrs_for(g: Grammar) -> Lcfrs:
    key = g.fingerprint()
    if key not in _conversion_cache:
        if len(_conversion_cache) > 128:
            _conversion_cache.clear()
        _conversion_cache[key] = grammar_to_lcfrs(g)
    return _conversion_cache[key]
