"""Spans and counters recorded from outside the program.

`Recorder.install` replaces a module attribute with a wrapper that records
one span per call, then restores the original on exit. The attribute is
patched in the module where the caller looks the name up: `mtl.py` and
`cli.py` bind their imports with `from ... import`, so `encoder_forward`
is patched as `mtlc.mtl.encoder_forward`, not in `mtlc.encoder`.

Spans are kept in memory as (name, start, end, parent, run) tuples and
written out once, when the run ends. A span's self time is its duration
minus the time its direct children cover.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import json
import sys
import time
from typing import Callable, NamedTuple, Optional


def _count_tape(rec: "Recorder", args, kwargs, result) -> None:
    tape = args[0] if args else kwargs["tape"]
    rec.counts["numcore.tensor.tape_records"] += len(tape)


def _count_encoded(rec: "Recorder", args, kwargs, seq) -> None:
    rec.counts["text.encode_calls"] += 1
    rec.counts["text.positions"] += len(seq.mask)
    rec.counts["text.valid_positions"] += sum(seq.mask)


# (module, attribute looked up by the caller, span name, hook or None);
# a hook runs after the call with (recorder, args, kwargs, result)
MODULE_TARGETS = (
    ("mtlc.cli", "train", "mtl.train", None),
    ("mtlc.cli", "evaluate", "mtl.evaluate", None),
    ("mtlc.cli", "load_config", "config.load", None),
    ("mtlc.cli", "load_joint_tsv", "data.load", None),
    ("mtlc.cli", "build_vocab", "text.build_vocab", None),
    ("mtlc.mtl", "init_params", "encoder.init", None),
    ("mtlc.cli", "load_checkpoint", "checkpoint.load", None),
    ("mtlc.cli", "save_checkpoint", "checkpoint.save", None),
    ("mtlc.cli", "build_report", "metrics.report", None),
    ("mtlc.cli", "report_to_dict", "metrics.report", None),
    ("mtlc.cli", "format_report", "metrics.report", None),
    ("mtlc.mtl", "evaluate", "mtl.evaluate", None),
    ("mtlc.mtl", "batches", "data.batches", None),
    ("mtlc.mtl", "encoder_forward", "encoder.forward", None),
    ("mtlc.mtl", "compute_loss", "losses", None),
    ("mtlc.mtl", "batch_loss", "losses", None),
    ("mtlc.mtl", "backward", "numcore.tensor.backward", _count_tape),
    ("mtlc.mtl", "adamw_step", "numcore.optim.adamw", None),
    ("mtlc.mtl", "soft_loss", "mtl.penalty", None),
    ("mtlc.mtl", "trace_norm_penalty", "numcore.linalg.trace_norm", None),
    # encode runs once per comment: count it, a span would cost more than it
    ("mtlc.data", "encode", None, _count_encoded),
)

# An untraced run patches only the two calls where `cli` hands a command to
# the model, to time the training loop and the evaluate command's forward;
# no hooks run, so counters hold traced iterations only.
COMMAND_TARGETS = tuple(t for t in MODULE_TARGETS if t[0] == "mtlc.cli" and t[1] in ("train", "evaluate"))


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list plus named counters for one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.run = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.run))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run)

    def _wrap(self, name: Optional[str], fn: Callable, hook: Optional[Callable]) -> Callable:
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def install(self, targets):
        """Patch every target for the duration of the block.

        A target whose attribute no longer exists is skipped with a warning,
        and its metric then reads 0.
        """
        saved = []
        try:
            for module_name, attr, name, hook in targets:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    print(f"tracing: {module_name}.{attr} not found, not traced", file=sys.stderr)
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def first(self, name: str, since: int) -> Span:
        """The first span called `name` at or after index `since`."""
        return next(s for s in self.spans[since:] if s.name == name)

    def self_times(self, runs) -> dict[str, float]:
        """Span duration minus direct-child duration, summed per span name."""
        runs = set(runs)
        own = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s.run in runs:
                own[i] += s.end - s.start
                if s.parent >= 0:
                    own[s.parent] -= s.end - s.start
        totals: dict[str, float] = collections.defaultdict(float)
        for i, s in enumerate(self.spans):
            if s.run in runs:
                totals[s.name] += own[i]
        return dict(totals)

    def inclusive_times(self, runs) -> dict[str, tuple[float, int]]:
        """(summed duration, call count) per span name."""
        runs = set(runs)
        totals: dict[str, list] = collections.defaultdict(lambda: [0.0, 0])
        for s in self.spans:
            if s.run in runs:
                totals[s.name][0] += s.end - s.start
                totals[s.name][1] += 1
        return {name: (t, n) for name, (t, n) in totals.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
