"""The benchmark in `mtlc_bench/` patches and calls program names by string;
a refactor that drops one would only print "not traced" there, so it fails
here instead."""

import importlib
import importlib.util
from pathlib import Path

import mtlc.cli
import mtlc.data
import mtlc.mtl
import mtlc.text

TRACING = Path(__file__).resolve().parent.parent / "mtlc_bench" / "tracing.py"

# targets whose name is already gone from the program; the tracer skips them
# until the benchmark drops them (`soft_loss` was `weighted_sum` under a
# second name, so the benchmark's `mtl.penalty_s` reads 0)
STALE = {("mtlc.mtl", "batch_loss"), ("mtlc.mtl", "soft_loss")}


def _tracing_module():
    spec = importlib.util.spec_from_file_location("mtlc_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in _tracing_module().MODULE_TARGETS
        if (module, attr) not in STALE and not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_names_the_benchmark_calls_exist():
    assert callable(mtlc.cli._model_from_checkpoint)
    assert callable(mtlc.mtl.evaluate)


def test_an_encoded_comment_has_the_mask_the_tracer_counts():
    # `_count_encoded` reads `len(seq.mask)` as positions and `sum(seq.mask)`
    # as valid positions of each `mtlc.data.encode` result
    vocab = mtlc.text.build_vocab(["ab"], mode="char", max_size=100)
    for text, max_len in (("", 3), ("ab", 6), ("abab" * 5, 8)):
        seq = mtlc.data.encode(text, vocab, max_len)
        assert len(seq.mask) == max_len
        assert sum(seq.mask) == len(seq.ids)
