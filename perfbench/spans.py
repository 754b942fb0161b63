"""In-memory span tracer for the traced benchmark run.

Spans are recorded around the public functions the harness reaches through
module attributes (``game.nucleolus``, ``metaparse.parse``, ...): `installed`
swaps each attribute for a timing wrapper and restores it on exit, so nothing
under ``src/`` changes.  A span is ``[name, start, end, parent, op, attrs]``;
``op`` is the index of the operation span (one sweep point or one request) it
belongs to, so spans of one operation share an identifier.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[parent][4] if parent >= 0 else len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, describe=None):
        """Time every call of `fn`; `describe(args, result, error)` returns
        the attributes kept with the span."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if describe is not None:
                    span[5] = describe(args, None, exc)
                raise
            else:
                if describe is not None:
                    span[5] = describe(args, result, None)
                return result
            finally:
                self._close(span)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "spans": self.spans}, fh)

    # -- analysis -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def _self_time(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def self_times(self, name: str) -> list[float]:
        own = self._self_time()
        return [own[i] for i, s in enumerate(self.spans) if s[0] == name]

    def attrs(self, name: str) -> list[dict]:
        return [s[5] or {} for s in self.spans if s[0] == name]

    def self_time_table(self) -> dict[str, float]:
        """Total self time per span name, for the human-readable summary."""
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self._self_time()):
            out[s[0]] = out.get(s[0], 0.0) + own
        return out


@contextmanager
def patched(replacements):
    """Set (object, attribute, value) triples for the duration of the block."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def _parse_attrs(args, tree, error):
    out = {"length": len(args[0])}
    if error is None:
        out["chart_items"] = tree.chart_items
    else:
        out["error"] = type(error).__name__
    return out


def program_targets():
    """(module, attribute, span name, describe) for every traced function."""
    from groupintent import game, grammar, gtnn, harness, kinematics, metaparse

    return [
        (game, "nucleolus", "game.nucleolus", None),
        (game, "solve_lp", "lp.solve_lp", None),
        (grammar, "generate", "grammar.generate", None),
        (metaparse, "parse", "metaparse.parse", _parse_attrs),
        (metaparse, "tree_to_graph", "metaparse.tree_to_graph", None),
        (metaparse, "encode", "metaparse.encode", None),
        (metaparse, "merge_tracks", "metaparse.merge_tracks", None),
        (kinematics, "simulate_track", "kinematics.simulate_track", None),
        (kinematics, "observe", "kinematics.observe", None),
        (kinematics, "kalman_filter", "kinematics.kalman_filter", None),
        (gtnn, "train", "gtnn.train", None),
        (gtnn, "backward_with_loss", "gtnn.backward_with_loss", None),
        (gtnn, "evaluate", "gtnn.evaluate", None),
        (gtnn, "mean_loss", "gtnn.mean_loss", None),
        (gtnn, "forward", "gtnn.forward", None),
        (harness, "build_intent", "harness.build_intent", None),
        (harness, "generate_dataset", "harness.generate_dataset", None),
        (harness, "records_to_samples", "harness.records_to_samples", None),
        (harness, "end_to_end_forward", "harness.end_to_end_forward", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Route every traced function through `tracer` for the block."""
    targets = program_targets()
    with patched([(mod, attr, tracer.wrap(name, getattr(mod, attr), describe))
                  for mod, attr, name, describe in targets]):
        yield
