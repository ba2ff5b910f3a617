"""In-memory spans around the calls ``cli.main`` makes into each layer.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.installed`
swaps wrappers in for the public functions that ``cli.main`` and
``stem_batch`` look up at call time, and puts the originals back on exit.

Stage calls (one per CLI run) each get a span with a parent; per-word
calls (``stem_word`` and ``graphemes.split``) are aggregated into a count
and a total time, so tracing them stays cheap.
"""

import contextlib
from dataclasses import dataclass
from time import perf_counter

from urdustem import cli, corpus, evaluation, graphemes, stemmer

# (module, attribute, span name).  ``cli`` binds ``parse_rule_file`` and
# ``stem_batch`` by name at import, so those are patched on ``cli``;
# everything else is looked up on its own module at call time.
STAGES = (
    (cli, "parse_rule_file", "rules.parse_rule_file"),
    (corpus, "normalize", "corpus.normalize"),
    (corpus, "tokenize", "corpus.tokenize"),
    (cli, "stem_batch", "stemmer.stem_batch"),
    (evaluation, "parse_gold_file", "evaluation.parse_gold_file"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "summarize", "evaluation.summarize"),
    (evaluation, "report_kv", "evaluation.report_kv"),
)
PER_CALL = (
    (stemmer, "stem_word", "stemmer.stem_word"),
    (graphemes, "split", "graphemes.split"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and per-call aggregates of one traced CLI run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: dict[str, list] = {name: [0, 0.0] for _, _, name in PER_CALL}
        self.last: dict[str, tuple] = {}  # span name -> (args, result) of its last call
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None, perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _stage(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.last[name] = (args, result)
            return result

        return wrapper

    def _per_call(self, name: str, fn):
        agg = self.calls[name]

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                agg[0] += 1
                agg[1] += perf_counter() - t0

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Route the traced functions through this tracer for the ``with`` body."""
        patches = [(m, a, self._stage(n, getattr(m, a))) for m, a, n in STAGES]
        patches += [(m, a, self._per_call(n, getattr(m, a))) for m, a, n in PER_CALL]
        saved = [(m, a, getattr(m, a)) for m, a, _ in patches]
        try:
            for m, a, wrapper in patches:
                setattr(m, a, wrapper)
            yield self
        finally:
            for m, a, original in saved:
                setattr(m, a, original)

    def seconds(self, name: str) -> float:
        """Total time of the spans called *name* (0 when the stage did not run)."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_seconds(self, name: str) -> float:
        """Time of the *name* spans not covered by their child spans."""
        total = 0.0
        for s in self.spans:
            if s.name == name:
                total += s.seconds - sum(c.seconds for c in self.spans if c.parent == s.id)
        return total

    def dump(self) -> list[dict]:
        """Spans as plain records, start times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        spans = [
            {"id": s.id, "name": s.name, "parent": s.parent,
             "start_s": s.start - t0, "dur_s": s.seconds}
            for s in self.spans
        ]
        calls = [{"name": n, "count": c, "total_s": t} for n, (c, t) in self.calls.items()]
        return spans + calls
