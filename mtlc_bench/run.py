"""mtlc benchmark: seeded workloads, end-to-end metrics, and a traced per-module run.

    python3 mtlc_bench/run.py --workload train_hard_char --seed 1 --seconds 55 --trace 0
    python3 mtlc_bench/run.py                 # every workload, untraced then traced

Each workload generates its own code-mixed corpus from `--seed`, then drives
the program's public entry points in this one process: `cli.main(["train",
...])`, `cli.main(["evaluate", ...])` and single-comment `mtl.evaluate`
calls. A run repeats them for a fixed number of iterations, set by
`--seconds` and the workload's nominal iteration time, so that the count does
not depend on how fast the program is (at least two, so reruns can be
compared byte for byte). Each timing is the interquartile mean over the
run's iterations (see `Bench.end_to_end`). `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates untraced and traced iterations and reports
the per-module metrics and the tracing overhead. The last line of standard
output is one JSON object; results and spans are written under
`.bench_out/`. See README.md beside this file for what each metric means.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: with 2 OpenBLAS threads a 4096x64 @ 64x128
# float64 matmul ran 5x slower than with 1 on a 2-vCPU machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from corpus import CorpusSpec, generate  # noqa: E402
from tracing import COMMAND_TARGETS, MODULE_TARGETS, Recorder  # noqa: E402

SETUP_PROBES = 3  # set-up probes per untraced iteration; setup_s is their median
# a run stops early, after at least two iterations, when one more iteration
# as long as the last would take it past this many times --seconds, so that
# a much slower program still ends in time
RUN_CAP = 1.15
ARTIFACTS = ("checkpoint.mtlc", "vocab.txt", "trace.tsv", "report.json", "report.txt")

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "classify_ms_p50": "ms",
    "classify_ms_p99": "ms",
    "run_s": "s",
    "peak_rss_mb": "MB",
}
PER_MODULE = {
    "numcore.linalg.trace_norm_s": "s",
    "numcore.linalg.trace_norm_calls": "count",
    "mtl.train_s": "s",
    "encoder.forward_s": "s",
    "encoder.forward_calls": "count",
    "encoder.forward_calls_per_sample": "ratio",
    "numcore.tensor.backward_s": "s",
    "numcore.tensor.backward_calls": "count",
    "numcore.tensor.tape_records_per_sample": "ratio",
    "mtl.train_self_s": "s",
    "mtl.evaluate_s": "s",
    "mtl.penalty_s": "s",
    "losses.s": "s",
    "losses.calls": "count",
    "numcore.optim.adamw_s": "s",
    "numcore.optim.steps": "count",
    "text.pad_share": "ratio",
    "text.tokens_per_seq": "count",
    "text.encode_calls": "count",
    "data.batches_s": "s",
    "config.load_s": "s",
    "data.load_s": "s",
    "text.build_vocab_s": "s",
    "encoder.init_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "bytes",
    "metrics.report_s": "s",
    "trace.overhead_s": "s",
}
# per-module metric -> span name whose summed duration it reports
SPAN_SECONDS = {
    "numcore.linalg.trace_norm_s": "numcore.linalg.trace_norm",
    "mtl.train_s": "mtl.train",
    "encoder.forward_s": "encoder.forward",
    "numcore.tensor.backward_s": "numcore.tensor.backward",
    "mtl.evaluate_s": "mtl.evaluate",
    "mtl.penalty_s": "mtl.penalty",
    "losses.s": "losses",
    "numcore.optim.adamw_s": "numcore.optim.adamw",
    "data.batches_s": "data.batches",
    "config.load_s": "config.load",
    "data.load_s": "data.load",
    "text.build_vocab_s": "text.build_vocab",
    "encoder.init_s": "encoder.init",
    "checkpoint.load_s": "checkpoint.load",
    "checkpoint.save_s": "checkpoint.save",
    "metrics.report_s": "metrics.report",
}
SPAN_CALLS = {
    "numcore.linalg.trace_norm_calls": "numcore.linalg.trace_norm",
    "encoder.forward_calls": "encoder.forward",
    "numcore.tensor.backward_calls": "numcore.tensor.backward",
    "losses.calls": "losses",
    "numcore.optim.steps": "numcore.optim.adamw",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json and README.md say why each
    exists. `iteration_s` is the nominal wall time of one untraced
    iteration: it sets how many iterations fit in `--seconds`."""

    name: str
    corpus: CorpusSpec
    config: dict
    epochs: int
    batch_size: int
    iteration_s: float
    model: dict = field(
        default_factory=lambda: {"d_model": 64, "n_heads": 4, "n_layers": 2, "d_ffn": 128}
    )

    def iterations(self, seconds: float) -> int:
        return max(2, round(seconds / self.iteration_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_hard_char",
            corpus=CorpusSpec(n_train=128, n_val=32, n_test=1000, max_len=64),
            config={"regime.kind": "hard_share"},
            epochs=2,
            batch_size=32,
            iteration_s=5.0,
        ),
        Workload(
            name="train_soft_trace",
            corpus=CorpusSpec(n_train=64, n_val=32, n_test=1000, max_len=64),
            config={"regime.kind": "soft_share", "regime.penalty": "trace_norm"},
            epochs=1,
            batch_size=64,
            iteration_s=7.5,
            # half the default width and one step per command keep a command
            # near 2 s, so a run holds several
            model={"d_model": 32, "n_heads": 4, "n_layers": 2, "d_ffn": 64},
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs in seconds, for the smoke test:
    one iteration per second of `--seconds`."""
    return replace(
        w,
        corpus=replace(w.corpus, n_train=24, n_val=8, n_test=16),
        batch_size=16,
        iteration_s=1.0,
        model={"d_model": 16, "n_heads": 2, "n_layers": 1, "d_ffn": 32},
    )


def sequences_per_iteration(w: Workload) -> int:
    """Comments one iteration passes through the model: training, per-epoch
    validation, the final validation report, the evaluate command and one
    single-comment call per test comment."""
    c = w.corpus
    return c.n_train * w.epochs + c.n_val * (w.epochs + 1) + 2 * c.n_test


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads(np) -> object:
    """Thread count OpenBLAS reports, read through its own C API."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return f"unread (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def environment(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info.get('version', '')}".strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------


class _SetupDone(Exception):
    """Raised in place of the first training step to end a set-up probe."""


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool):
        from mtlc import cli, data, metrics, mtl

        self.cli, self.data, self.metrics, self.mtl = cli, data, metrics, mtl
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.dir = OUT / w.name / f"seed{seed}"
        self.data_dir, self.run_dir, self.eval_dir = self.dir / "data", self.dir / "run", self.dir / "eval"
        self.rec = Recorder()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        # per untraced iteration, the single-comment latencies in ms, in
        # test-comment order
        self.latencies: list[list[float]] = []
        self.expected: dict[str, list[int]] = {}
        self.f1: dict[str, dict[str, float]] = {}
        self.module_table: dict[str, dict[str, float]] = {}

    # -- bookkeeping --------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def command(self, argv: list[str]) -> Optional[int]:
        """Run one mtlc command; the index of its span, or None if it failed."""
        index = len(self.rec.spans)
        with self.rec.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        return index if self.check(code == 0, f"mtlc {argv[0]} exited with {code}") else None

    # -- inputs -------------------------------------------------------------

    def prepare(self) -> dict:
        for stale in (self.data_dir, self.run_dir, self.eval_dir):
            if stale.exists():
                shutil.rmtree(stale)
        manifest = generate(self.seed, self.w.corpus, str(self.data_dir))
        self.config_path = self.dir / "train.cfg"
        values = {
            "data.train": self.data_dir / "train.tsv",
            "data.val": self.data_dir / "val.tsv",
            "data.test": self.data_dir / "test.tsv",
            "data.language": "kannada",
            "text.mode": "char",
            "text.max_len": self.w.corpus.max_len,
            **{f"model.{k}": v for k, v in self.w.model.items()},
            "regime.loss": "CE",
            **self.w.config,
            "train.epochs": self.w.epochs,
            "train.batch_size": self.w.batch_size,
            "train.seed": self.seed,
            "output.dir": self.run_dir,
        }
        self.config_path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        schemas = self.data.schemas_for_language("kannada")
        self.test = self.data.load_joint_tsv(str(self.data_dir / "test.tsv"), schemas, "kannada")
        self.singles = [
            self.data.Corpus(records=[rec], schemas=self.test.schemas, language=self.test.language)
            for rec in self.test.records
        ]
        return manifest

    def train_argv(self) -> list[str]:
        return ["train", "--config", str(self.config_path)]

    def eval_argv(self) -> list[str]:
        return [
            "evaluate",
            "--checkpoint", str(self.run_dir / "checkpoint.mtlc"),
            "--data", str(self.data_dir / "test.tsv"),
            "--out-dir", str(self.eval_dir),
        ]

    # -- one iteration ------------------------------------------------------

    def same_as_first(self, path: Path, label: str) -> None:
        if not path.exists():
            return
        digest = _sha(path)
        first = self.digests.setdefault(label, digest)
        self.check(digest == first, f"{label} differs from the first iteration's")

    def iteration(self, traced: bool) -> dict[str, float]:
        """One train command, one evaluate command, then a closed loop from
        one client of one single-comment call per test comment. Returns the
        iteration's timings."""
        rec, figures = self.rec, {}
        train = self.command(self.train_argv())
        if train is not None:
            figures["run_s"] = rec.spans[train].seconds
            figures["train_loop_s"] = rec.first("mtl.train", train).seconds
            present = [(self.run_dir / a).exists() for a in ARTIFACTS]
            self.check(all(present), "a run artifact is missing")
            if (self.run_dir / "trace.tsv").exists():
                self.check(self._losses_finite(), "trace.tsv holds a non-finite train loss")
            self.same_as_first(self.run_dir / "checkpoint.mtlc", "checkpoint.mtlc")
            self.same_as_first(self.run_dir / "report.json", "report.json")
        evaluate = self.command(self.eval_argv())
        if evaluate is None:
            return figures
        figures["eval_s"] = rec.spans[evaluate].end - rec.first("mtl.evaluate", evaluate).start
        self.same_as_first(self.eval_dir / "eval_report.json", "eval_report.json")
        model, _, vocab = self.cli._model_from_checkpoint(
            str(self.run_dir / "checkpoint.mtlc"), str(self.run_dir / "vocab.txt")
        )
        if not self.expected:
            self._check_in_process(model, vocab)
        latencies = self.classify(model, vocab)
        if not traced:
            self.latencies.append(latencies)
        return figures

    def classify(self, model, vocab) -> list[float]:
        """Latency in ms of one single-comment call per test comment."""
        latencies = []
        for i in range(len(self.singles)):
            self.attempted += 1
            t0 = time.perf_counter()
            preds = self.mtl.evaluate(model, self.singles[i], vocab)
            latencies.append((time.perf_counter() - t0) * 1e3)
            if any(preds[t] != [self.expected[t][i]] for t in preds):
                self.failed += 1
                self.failures.append(f"single-comment prediction {i} differs from the batch one")
        return latencies

    def _losses_finite(self) -> bool:
        lines = (self.run_dir / "trace.tsv").read_text().splitlines()
        cols = lines[0].split("\t")
        loss_cols = [i for i, c in enumerate(cols) if c.endswith("_train_loss")]
        return bool(loss_cols) and all(
            math.isfinite(float(line.split("\t")[i])) for line in lines[1:] for i in loss_cols
        )

    def _check_in_process(self, model, vocab) -> None:
        """`mtlc evaluate` must reproduce the report computed here from the
        reloaded checkpoint; its predictions are the single-comment reference."""
        self.expected = self.mtl.evaluate(model, self.test, vocab)
        tasks = list(self.expected)
        report = self.metrics.build_report(
            {t: [r.labels[t] for r in self.test.records] for t in tasks},
            self.expected,
            {t: self.test.schemas[t].classes for t in tasks},
        )
        mine = self.metrics.report_to_dict(report)
        theirs = json.loads((self.eval_dir / "eval_report.json").read_text())
        for t in tasks:
            self.check(
                mine["tasks"][t]["weighted"]["f1"] == theirs["tasks"][t]["weighted"]["f1"],
                f"mtlc evaluate weighted F1 for {t} differs from the in-process one",
            )
        self.check(mine == theirs, "mtlc evaluate report differs from the in-process one")
        val = json.loads((self.run_dir / "report.json").read_text())
        self.f1 = {
            "val": {t: val["tasks"][t]["weighted"]["f1"] for t in tasks},
            "test": {t: mine["tasks"][t]["weighted"]["f1"] for t in tasks},
        }

    def setup_probe(self) -> float:
        """Run `mtlc train` up to its first training step, where `cli`
        calls `train`."""
        original = self.cli.train

        def stop(*args, **kwargs):
            raise _SetupDone(time.perf_counter())

        self.cli.train = stop
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(self.train_argv())
        except _SetupDone as done:
            return done.args[0] - start
        finally:
            self.cli.train = original
        self.failed += 1
        self.failures.append(f"set-up probe ended with {code} before its first step")
        return math.nan

    # -- the run ------------------------------------------------------------

    def run(self) -> tuple[dict, dict]:
        manifest = self.prepare()
        # run on the highest-numbered allowed CPU: on a 2-vCPU virtual machine,
        # iterations on CPU 0 (which serves the network device's interrupts)
        # had a single-comment p99 of 4.2 to 7.0 ms, those on CPU 1 3.1 to 3.9
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        per_iteration: list[dict[str, float]] = []
        setup: list[float] = []
        start = time.perf_counter()
        cap = start + RUN_CAP * self.seconds
        for i in range(self.w.iterations(self.seconds)):
            self.rec.run = i
            traced = self.trace and i % 2 == 1
            # untraced, the single-comment loop calls the program's own
            # mtl.evaluate: COMMAND_TARGETS patches only cli's names
            with self.rec.install(MODULE_TARGETS if traced else COMMAND_TARGETS):
                per_iteration.append(self.iteration(traced))
            if not self.trace:
                setup += [self.setup_probe() for _ in range(SETUP_PROBES)]
            now = time.perf_counter()
            if i >= 1 and 2 * now - start > cap:
                print(f"stopped after {i + 1} iterations, before {RUN_CAP} x --seconds", file=sys.stderr)
                break
            start = now
        if self.trace:
            metrics = self.per_module(per_iteration)
        else:
            metrics = self.end_to_end(per_iteration, setup)
        info = {
            "iterations": len(per_iteration),
            "classify_samples": sum(map(len, self.latencies)),
            "per_iteration": per_iteration,
            "setup_probes": setup,
            "weighted_f1": self.f1,
            "corpus": manifest,
        }
        return metrics, info

    def end_to_end(self, per_iteration: list[dict], setup: list[float]) -> dict:
        """Each command timing is the interquartile mean over the run's
        iterations (`_iqm`), and set-up the median of every probe. Other
        tenants of a shared host switch the speed of the same work between
        levels, in stretches of seconds to minutes, so the share of a run
        spent at the slower levels varies from run to run. A run's fastest
        iteration measures how much quiet time it got, and its median jumps
        from one level to the other as that share crosses a half; the mean
        of the middle half of the iterations follows the share smoothly and
        drops the stalls that make single iterations outliers.

        A comment's single-comment latency is the median of its calls, one
        per iteration, and the percentiles are over comments: a stall that
        hits a few calls of an iteration stays out of the p99."""
        w, its = self.w, per_iteration
        per_comment = [statistics.median(c) for c in zip(*self.latencies)] or [math.nan] * 2
        return {
            "setup_s": statistics.median(setup) if setup else math.nan,
            "train_samples_per_s": w.corpus.n_train * w.epochs / _iqm(its, "train_loop_s"),
            "eval_samples_per_s": w.corpus.n_test / _iqm(its, "eval_s"),
            "classify_ms_p50": statistics.median(per_comment),
            "classify_ms_p99": statistics.quantiles(per_comment, n=100)[98],
            "run_s": _iqm(its, "run_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_module(self, per_iteration: list[dict]) -> dict:
        """Per traced iteration; the traced run alternates untraced and
        traced iterations, starting untraced."""
        rec, w = self.rec, self.w
        runs = range(1, len(per_iteration), 2)
        n = len(runs)
        incl = rec.inclusive_times(runs)
        own = rec.self_times(runs)
        out = {}
        for metric, span in SPAN_SECONDS.items():
            out[metric] = incl.get(span, (0.0, 0))[0] / n
        for metric, span in SPAN_CALLS.items():
            out[metric] = incl.get(span, (0.0, 0))[1] / n
        out["mtl.train_self_s"] = own.get("mtl.train", 0.0) / n
        out["encoder.forward_calls_per_sample"] = out["encoder.forward_calls"] / sequences_per_iteration(w)
        out["numcore.tensor.tape_records_per_sample"] = (
            rec.counts["numcore.tensor.tape_records"] / n / (w.corpus.n_train * w.epochs)
        )
        encoded = rec.counts["text.encode_calls"]
        out["text.encode_calls"] = encoded / n
        out["text.tokens_per_seq"] = rec.counts["text.valid_positions"] / max(encoded, 1)
        out["text.pad_share"] = 1.0 - rec.counts["text.valid_positions"] / max(rec.counts["text.positions"], 1)
        checkpoint = self.run_dir / "checkpoint.mtlc"
        out["checkpoint.bytes"] = checkpoint.stat().st_size if checkpoint.exists() else 0
        untraced, traced = (_iqm(per_iteration[start::2], "run_s") for start in (0, 1))
        out["trace.overhead_s"] = traced - untraced
        self.module_table = {
            name: {"inclusive_s": t / n, "self_s": own.get(name, 0.0) / n, "calls": c / n}
            for name, (t, c) in sorted(incl.items())
        }
        return out


def _iqm(per_iteration: list[dict], key: str) -> float:
    """Mean of the middle half of the iterations' values of `key`: a
    quarter is dropped from each end, rounded down."""
    values = sorted(f[key] for f in per_iteration if key in f)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut]) if values else math.nan


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> int:
    env = environment(seed)
    bench = Bench(w, seed, seconds, trace)
    try:
        metrics, info = bench.run()
    except Exception:
        traceback.print_exc()
        bench.attempted += 1
        bench.failed += 1
        metrics, info = {}, {}
    units = PER_MODULE if trace else END_TO_END
    correct = (
        bench.failed == 0
        and set(metrics) == set(units)
        and all(math.isfinite(v) for v in metrics.values())
    )
    attempted = max(bench.attempted, 1)
    error_rate = bench.failed / attempted

    print(f"== {w.name} (seed {seed}, {'traced' if trace else 'untraced'}) ==")
    for key, value in env.items():
        print(f"env {key} = {value}")
    for name in units:
        if name in metrics:
            print(f"{name:42s} {metrics[name]:14.6g} {units[name]}")
    if info:
        print(f"{'iterations':42s} {info['iterations']:14d} count")
    if not trace and info:
        print(f"{'classify samples':42s} {info['classify_samples']:14d} count")
    print(f"{'error_rate':42s} {error_rate:14.6g} ratio ({bench.failed} of {attempted} operations failed)")
    for task_split, values in (info.get("weighted_f1") or {}).items():
        print(f"weighted F1 ({task_split}, information only): {values}")

    results = {
        "workload": w.name,
        "trace": trace,
        "environment": env,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
        "error_rate": error_rate,
        "attempted": attempted,
        "failed": bench.failed,
        "failures": bench.failures[:50],
        **info,
    }
    bench.dir.mkdir(parents=True, exist_ok=True)
    if trace:
        results["modules"] = bench.module_table
        bench.rec.write(str(bench.dir / "spans.jsonl"))
    (bench.dir / f"results-trace{int(trace)}.json").write_text(json.dumps(results, indent=2, default=str) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process so that
    peak RSS is the workload's own."""
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.size == "tiny":
                argv += ["--size", "tiny"]
            code |= subprocess.run(argv, check=False).returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mtlc benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mtlc").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'mtlc'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    w = WORKLOADS[args.workload]
    if args.size == "tiny":
        w = tiny(w)
    return run_workload(w, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
