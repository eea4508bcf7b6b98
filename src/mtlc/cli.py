"""Command-line surface: split, train, evaluate, and compare runs.

A command exits 0, the `exit_code` of the `MtlcError` it raised, or 3 on a
failed read or write. `mtlc train` takes only `--config`: every setting of a
run, its seed included, is in that file.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import glob
import hashlib
import json
import os
import sys
from typing import Optional, Sequence

import numpy

from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .config import RunConfig, load_config
from .data import (
    check_ratios,
    check_stratify_task,
    fold_word,
    load_joint_tsv,
    merge_task_files,
    schemas_for_language,
    stratified_split,
    write_splits,
)
from .errors import ConfigError, CorruptArtifactError, DataError, MtlcError
from .metrics import TaskReport, build_report, format_report, load_report, report_to_dict
from .mtl import EpochStats, Model, build_model, evaluate, expected_param_shapes, train
from .numcore import Tensor
from .text import build_vocab, parse_vocab, save_vocab

CHECKPOINT_NAME = "checkpoint.mtlc"
VOCAB_NAME = "vocab.txt"
TRACE_NAME = "trace.tsv"
REPORT = "report"  # report.json and report.txt


def _check_path_text(path: str, name: str) -> None:
    """A ConfigError naming `name` if `path` is empty or holds a NUL byte:
    no os call takes either."""
    if not path or "\0" in path:
        raise ConfigError(f"{name}: path {path!r} is empty or holds a NUL byte")


def check_out_dir(path: str, name: str) -> None:
    """A ConfigError naming `name` unless `path` is a directory or can be
    made one: its nearest existing ancestor must be a directory."""
    _check_path_text(path, name)
    nearest = os.path.abspath(path)
    while not os.path.lexists(nearest):  # the run makes the missing part
        nearest = os.path.dirname(nearest)
    if not os.path.isdir(nearest):
        raise ConfigError(f"{name}: path {path!r} is a file or under one")


def check_in_file(path: str, name: str) -> None:
    """A ConfigError naming `name` unless `path` is a file."""
    _check_path_text(path, name)
    if not os.path.isfile(path):
        raise ConfigError(f"{name}: path {path!r} is not a file")


def _trace_tsv(epochs: Sequence[EpochStats], tasks: Sequence[str]) -> str:
    cols = ["epoch"]
    for task in tasks:
        cols += [f"{task}_train_loss", f"{task}_train_acc", f"{task}_val_f1"]
    lines = ["\t".join(cols)]
    for i, ep in enumerate(epochs):
        row = [str(i)]
        for task in tasks:
            stats = (ep.train_loss[task], ep.train_accuracy[task], ep.val_report[task].weighted.f1)
            row += [f"{value:.10g}" for value in stats]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def cmd_split(args) -> int:
    try:
        ratios = tuple(float(part) for part in args.ratios.split(","))
    except ValueError:
        raise ConfigError(f"--ratios needs numbers, got {args.ratios!r}") from None
    check_ratios(ratios, "--ratios")
    check_out_dir(args.out_dir, "--out-dir")
    schemas = schemas_for_language(args.language)
    check_stratify_task(args.stratify_task, schemas, "--stratify-task")
    inputs = {
        "--input": args.input,
        "--sentiment-input": args.sentiment_input,
        "--offense-input": args.offense_input,
    }
    given = [flag for flag, path in inputs.items() if path is not None]
    if given not in (["--input"], ["--sentiment-input", "--offense-input"]):
        raise ConfigError(
            "give --input or both --sentiment-input and --offense-input; got "
            + (", ".join(given) or "none")
        )
    for flag in given:
        check_in_file(inputs[flag], flag)
    if args.input is None:
        corpus, sentiment_only, offense_only = merge_task_files(
            args.sentiment_input, args.offense_input, schemas, args.language
        )
        print(
            f"merge: dropped {sentiment_only} sentiment-only and "
            f"{offense_only} offense-only comments",
            file=sys.stderr,
        )
    else:
        corpus = load_joint_tsv(args.input, schemas, args.language)

    splits = stratified_split(corpus, ratios, args.seed, args.stratify_task)
    write_splits(args.out_dir, splits, args.seed, ratios, args.stratify_task)
    print(
        f"split {len(corpus)} records into {len(splits.train)}/{len(splits.val)}/{len(splits.test)}"
        f" at {args.out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _model_from_checkpoint(checkpoint_path: str, vocab_path: str) -> tuple[Model, RunConfig, object]:
    config_text, vocab_digest, arrays = load_checkpoint(checkpoint_path)
    try:
        cfg = load_config(config_text)
    except ConfigError as err:
        raise ConfigError(f"checkpoint {checkpoint_path!r}: embedded config: {err}") from None
    with open(vocab_path, "rb") as fh:
        data = fh.read()
    if hashlib.sha256(data).digest() != vocab_digest:
        raise DataError(
            f"vocabulary {vocab_path!r} is not the one checkpoint {checkpoint_path!r} "
            "was trained with; they are not from the same run"
        )
    vocab = parse_vocab(data, vocab_path)
    schemas = schemas_for_language(cfg.language)
    enc_cfg = dataclasses.replace(cfg.encoder, vocab_size=len(vocab))
    n_classes = {task: schemas[task].n_classes for task in cfg.regime.tasks}
    expected = expected_param_shapes(cfg.regime, enc_cfg, n_classes)
    shapes = {name: array.shape for name, array in arrays.items()}
    if shapes != expected:
        wrong = sorted(n for n in shapes.keys() | expected.keys() if shapes.get(n) != expected.get(n))
        listed = ", ".join(f"{n!r} is {shapes.get(n)}, expected {expected.get(n)}" for n in wrong[:5])
        raise CorruptArtifactError(f"checkpoint tensors disagree with its config: {listed}")
    # evaluation only: frozen parameters put nothing on any tape, and the
    # model computes in the float32 the checkpoint stores
    params = {name: Tensor(array) for name, array in arrays.items()}
    model = Model(regime=cfg.regime, encoder_cfg=enc_cfg, params=params)
    return model, cfg, vocab


def _write_report(
    out_dir: str, stem: str, report: dict[str, TaskReport], tasks: Sequence[str], label: str
) -> None:
    """Write `<stem>.json` and `<stem>.txt`; print each weighted F1 in `tasks` order."""
    write_atomic(
        os.path.join(out_dir, stem + ".json"),
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n",
    )
    write_atomic(os.path.join(out_dir, stem + ".txt"), format_report(report))
    for task in tasks:
        print(f"{task} {label} = {report[task].weighted.f1:.5f}")


def _read_config(path: str) -> str:
    """The config file's text without a BOM; a ConfigError if it cannot be read."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise ConfigError(f"config {path!r} is not UTF-8 text ({err.reason})") from None
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err.strerror}") from None


def cmd_train(args) -> int:
    cfg = load_config(_read_config(args.config))
    # every path the run opens is checked before it reads any. Training never
    # reads the test split, and `mtlc evaluate --data` scores one, so
    # `data.test` must be a file when given but is never parsed
    for key in ("data.train", "data.val"):
        if not cfg.raw[key]:
            raise ConfigError(f"{key}: required path is missing")
    for key in ("data.train", "data.val", "data.test"):
        if cfg.raw[key]:
            check_in_file(cfg.raw[key], key)
    out = cfg.raw["output.dir"]
    check_out_dir(out, "output.dir")
    schemas = schemas_for_language(cfg.language)
    train_split = load_joint_tsv(cfg.raw["data.train"], schemas, cfg.language)
    val_split = load_joint_tsv(cfg.raw["data.val"], schemas, cfg.language)
    vocab = build_vocab(
        (rec.text for rec in train_split.records),
        mode=cfg.text_mode,
        min_freq=cfg.min_freq,
        max_size=cfg.max_size,
    )
    enc_cfg = dataclasses.replace(cfg.encoder, vocab_size=len(vocab))
    n_classes = {task: schemas[task].n_classes for task in cfg.regime.tasks}
    model = build_model(cfg.regime, enc_cfg, n_classes, cfg.train_cfg.seed)
    epochs = train(model, train_split, val_split, vocab, cfg.train_cfg)

    os.makedirs(out, exist_ok=True)
    vocab_digest = hashlib.sha256(save_vocab(vocab, os.path.join(out, VOCAB_NAME))).digest()
    save_checkpoint(os.path.join(out, CHECKPOINT_NAME), cfg.to_text(), vocab_digest, model.params)
    write_atomic(os.path.join(out, TRACE_NAME), _trace_tsv(epochs, cfg.regime.tasks))
    # the last validation ran on the weights as stored, so `mtlc evaluate`
    # on the checkpoint reproduces this report exactly
    _write_report(out, REPORT, epochs[-1].val_report, cfg.regime.tasks, "validation weighted F1")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def cmd_evaluate(args) -> int:
    check_in_file(args.checkpoint, "--checkpoint")
    check_in_file(args.data, "--data")
    # a flag given an empty path is checked as given, not read as absent
    home = os.path.dirname(args.checkpoint)
    vocab_path = os.path.join(home, VOCAB_NAME) if args.vocab is None else args.vocab
    check_in_file(vocab_path, "--vocab")
    if args.out_dir is not None:
        check_out_dir(args.out_dir, "--out-dir")
    model, cfg, vocab = _model_from_checkpoint(args.checkpoint, vocab_path)
    schemas = schemas_for_language(cfg.language)
    corpus = load_joint_tsv(args.data, schemas, cfg.language)
    golds = {task: [rec.labels[task] for rec in corpus.records] for task in cfg.regime.tasks}
    classes = {task: corpus.schemas[task].classes for task in cfg.regime.tasks}
    report = build_report(golds, evaluate(model, corpus, vocab), classes)

    out_dir = (home or ".") if args.out_dir is None else args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    _write_report(out_dir, "eval_report", report, cfg.regime.tasks, "weighted F1")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(args) -> int:
    if args.out is not None:
        _check_path_text(args.out, "--out")
        if args.out.endswith(os.sep) or os.path.isdir(args.out):
            raise ConfigError(f"--out: path {args.out!r} names a directory")
        check_out_dir(os.path.dirname(args.out) or ".", "--out")
    run_dirs = [r.strip() for r in args.runs.split(",") if r.strip()]
    if not run_dirs:
        raise ConfigError("--runs needs at least one run directory")
    reports = [load_report(os.path.join(run, REPORT + ".json")) for run in run_dirs]
    names = [os.path.basename(os.path.normpath(run)) or run for run in run_dirs]
    tasks = dict.fromkeys(task for rep in reports for task in rep)

    tsv_lines = ["\t".join(["task", "row"] + names)]
    text_lines = []
    for task in tasks:
        runs = [rep.get(task) for rep in reports]
        # the union of the runs' classes, in first-seen order
        labels = dict.fromkeys(label for tr in runs if tr for label in tr.per_class)
        rows = [(label, [tr and tr.per_class.get(label) for tr in runs]) for label in labels]
        rows.append(("Macro average", [tr and tr.macro for tr in runs]))
        rows.append(("Weighted average", [tr and tr.weighted for tr in runs]))

        width = max(len(r[0]) for r in rows)
        text_lines.append(f"== {task} (F1) ==")
        header = f"{'':<{width}}  " + "  ".join(f"{n:>12}" for n in names)
        if len(run_dirs) == 2:
            header += f"  {'delta':>12}"
        text_lines.append(header)
        for label, vals in rows:
            cells = "  ".join(f"{v:>12.5f}" if v is not None else f"{'-':>12}" for v in vals)
            line = f"{label:<{width}}  {cells}"
            if len(run_dirs) == 2 and None not in vals:
                line += f"  {vals[1] - vals[0]:>+12.5f}"
            text_lines.append(line)
            tsv_lines.append(
                "\t".join(
                    [task, label] + [f"{v:.5f}" if v is not None else "" for v in vals]
                )
            )
        text_lines.append("")

    table = "\n".join(text_lines)
    print(table)
    if args.out is not None:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        write_atomic(args.out, "\n".join(tsv_lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


@functools.cache  # parsing never changes the parser; main builds it once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlc",
        description="Train and evaluate joint sentiment/offense classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_split = sub.add_parser("split", help="stratified train/val/test split of a TSV corpus")
    p_split.add_argument("--input", help="joint 3-column TSV (text, sentiment, offense)")
    p_split.add_argument("--sentiment-input", help="2-column TSV for the sentiment task")
    p_split.add_argument("--offense-input", help="2-column TSV for the offense task")
    p_split.add_argument("--out-dir", required=True)
    p_split.add_argument("--ratios", default="0.8,0.1,0.1")
    p_split.add_argument("--seed", type=int, default=0)
    p_split.add_argument("--stratify-task", default="sentiment", type=fold_word)
    p_split.add_argument("--language", default="kannada")
    p_split.set_defaults(func=cmd_split)

    p_train = sub.add_parser("train", help="train per the config and write run artifacts")
    p_train.add_argument("--config", required=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on a labeled TSV")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--vocab", default=None, help="defaults to vocab.txt beside the checkpoint")
    p_eval.add_argument("--out-dir", default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_report = sub.add_parser("report", help="compare runs side by side")
    p_report.add_argument("--runs", required=True, help="comma-separated run directories")
    p_report.add_argument("--out", default=None, help="also write the table as TSV here")
    p_report.set_defaults(func=cmd_report)
    return parser


# glibc <malloc.h> parameters and the values mtlc sets: freed blocks up to
# 32 MiB return to the heap rather than to the kernel through munmap, and
# the heap top is trimmed only past 256 MiB free. A process that trains and
# then evaluates otherwise shrinks its heap after each batch and faults the
# same pages back in on the next one.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 256 << 20))


def _is_glibc() -> bool:
    # confstr reads one libc constant; platform.libc_ver() scans the
    # interpreter binary
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@functools.cache  # once per process
def _keep_heap_mapped() -> None:
    """Apply `_HEAP_SETTINGS` through glibc's `mallopt`. They hold for the
    whole process. Elsewhere than on glibc, does nothing."""
    if not _is_glibc():
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_SETTINGS:
        mallopt(param, value)


# OpenBLAS's thread-count setter in numpy 2's wheels, numpy 1's, and a plain build
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads"
)


@functools.cache  # once per process
def _pin_blas_thread() -> None:
    """Run the OpenBLAS in numpy's wheel (numpy.libs beside the package,
    .dylibs in it) on one thread: the thread count decides how a GEMM
    splits its sums, so its bits. Without a setter, says so on stderr."""
    home = os.path.dirname(numpy.__file__)
    libs = glob.glob(os.path.join(home, os.pardir, "numpy.libs", "*openblas*"))
    for path in sorted(libs + glob.glob(os.path.join(home, ".dylibs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_SETTERS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                setter(1)
                return
    print("mtlc: BLAS threads unpinned; bits repeat only at a fixed thread count", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _keep_heap_mapped()
    _pin_blas_thread()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MtlcError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
