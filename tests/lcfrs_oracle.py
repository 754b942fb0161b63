"""Derivation oracles for the parser tests, kept apart from the chart parser
so that the tests compare it against code that shares none of its logic."""

from __future__ import annotations

import math
from itertools import product

from groupintent.grammar import Grammar
from groupintent.lcfrs import Lcfrs, LcfrsRule, Spans


def enumerate_derivations(lcfrs: Lcfrs, tokens: list[str]):
    """Exhaustively enumerate (log-weight, tag-sequence) over all derivations.

    Independent oracle for MAP optimality tests: a plain recursive splitter
    with no Viterbi logic, feasible for short strings only.
    """
    rules_by_lhs: dict[str, list[LcfrsRule]] = {}
    for rule in lcfrs.rules:
        if rule.weight > 0.0:
            rules_by_lhs.setdefault(rule.lhs, []).append(rule)

    memo: dict[tuple[str, Spans], list] = {}

    def fill(template, span, results):
        """All child-component bindings that let `template` cover `span`."""

        def step(idx, pos, bound):
            if idx == len(template):
                if pos == span[1]:
                    results.append(bound)
                return
            piece = template[idx]
            if piece[0] == "t":
                if pos < span[1] and tokens[pos] == piece[1]:
                    step(idx + 1, pos + 1, bound)
            else:
                remaining_min = len(template) - idx - 1
                for end in range(pos + 1, span[1] - remaining_min + 1):
                    step(idx + 1, end, bound + [((piece[1], piece[2]), (pos, end))])

        step(0, span[0], [])

    def derive(nt: str, spans: Spans):
        key = (nt, spans)
        if key in memo:
            return memo[key]
        memo[key] = []
        out = []
        for rule in rules_by_lhs.get(nt, []):
            if len(rule.templates) != len(spans):
                continue
            per_comp: list[list] = []
            feasible = True
            for template, span in zip(rule.templates, spans):
                results: list = []
                fill(template, span, results)
                if not results:
                    feasible = False
                    break
                per_comp.append(results)
            if not feasible:
                continue
            for combo in product(*per_comp):
                bindings: dict[tuple[int, int], tuple[int, int]] = {}
                ok = True
                for comp_bound in combo:
                    for slot, interval in comp_bound:
                        if slot in bindings and bindings[slot] != interval:
                            ok = False
                        bindings[slot] = interval
                if not ok:
                    continue
                child_spans: list[Spans] = []
                for ci in range(len(rule.rhs)):
                    comps = sorted(cj for (c, cj) in bindings if c == ci)
                    if comps != list(range(len(comps))) or not comps:
                        ok = False
                        break
                    child_spans.append(tuple(bindings[(ci, cj)] for cj in comps))
                if not ok:
                    continue
                child_results = [
                    derive(child_nt, child_spans[ci])
                    for ci, child_nt in enumerate(rule.rhs)
                ]
                if any(not res for res in child_results):
                    continue
                for picked in product(*child_results):
                    logw = math.log(rule.weight) + sum(pr[0] for pr in picked)
                    tagseq = rule.tags + tuple(tag for pr in picked for tag in pr[1])
                    out.append((logw, tagseq))
        memo[key] = out
        return out

    return derive(lcfrs.start, ((0, len(tokens)),))


def triangle_conversion_tags(tokens, g: Grammar) -> list[str]:
    """Reconstruct the swap/conversion applications a sentential-form
    derivation of `tokens` uses in the built-in family, written out by its
    own rule ids and letters.

    A b after the d-block converts at the d-boundary, a b after a b by
    b-propagation (falling back to the unit rule when the context rule is
    inactive); c's convert at the b- or c-boundary.  The swap count is the
    number of crossed (b_j, c_i) pairs with j > i, which is exactly how many
    CB -> BC exchanges the rewriting needs.
    """
    unit_b = "VI" if g.probs.get("VI", 0.0) > 0.0 else None
    tags: list[str] = []
    prev = "d"
    b_seen = 0
    b_before_each_c: list[int] = []
    for tok in tokens:
        if tok == "d":
            prev = "d"
        elif tok == "b":
            b_seen += 1
            if prev == "d":
                tags.append("IX")
            elif prev == "b":
                tags.append("IXb")
            elif unit_b:
                tags.append(unit_b)
            prev = "b"
        elif tok == "c":
            b_before_each_c.append(b_seen)
            tags.append("X" if prev == "b" else "XII")
            prev = "c"
        else:
            raise ValueError(f"token {tok!r} is not in the family alphabet")
    n_swaps = sum(
        max(0, n_b - i) for i, n_b in enumerate(b_before_each_c, start=1)
    )
    tags.extend(["XI"] * n_swaps)
    return tags
