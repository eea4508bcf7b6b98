"""Corpus ingestion, label schemas, stratified splitting, and batching.

The interchange format is UTF-8 TSV: three columns (text, sentiment label,
offense label) for joint files, two for single-task files. Comments often
contain commas, so tabs are the only safe separator; a text with an
embedded tab cannot round-trip and its row is rejected.
"""

from __future__ import annotations

import math
import os
import unicodedata
from dataclasses import dataclass, field

from .checkpoint import write_atomic
from .errors import ContractError, DataError
from .numcore import stream
from .text import TokenSeq, Vocab, encode

SENTIMENT_TASK = "sentiment"
OFFENSE_TASK = "offense"

SENTIMENT_CLASSES = (
    "Positive",
    "Negative",
    "Mixed feelings",
    "Neutral",
    "Other language",
)
OFFENSE_CLASSES = (
    "Not offensive",
    "Offensive untargeted",
    "Offensive targeted individual",
    "Offensive targeted group",
    "Offensive targeted others",
    "Other language",
)
# Malayalam has no "Offensive targeted others" class
OFFENSE_CLASSES_NO_OTO = tuple(c for c in OFFENSE_CLASSES if c != "Offensive targeted others")

LANGUAGES = ("kannada", "tamil", "malayalam")

BAD_ROW_LIMIT = 0.01  # ingestion fails when more than 1% of rows are bad


@dataclass(frozen=True)
class LabelSchema:
    task: str
    classes: tuple[str, ...]
    _lookup: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        lookup = {fold_word(c): i for i, c in enumerate(self.classes)}
        if len(lookup) != len(self.classes):
            raise ContractError(f"duplicate class names in schema for {self.task}")
        object.__setattr__(self, "_lookup", lookup)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def index(self, name: str) -> int:
        """The class `name` spells, compared through `fold_word`; raises on no match."""
        try:
            return self._lookup[fold_word(name)]
        except KeyError:
            raise DataError(f"unknown {self.task} label {name!r}") from None


def schemas_for_language(language: str) -> dict[str, LabelSchema]:
    lang = fold_word(language)
    if lang not in LANGUAGES:
        raise ContractError(f"unknown language {language!r}; expected one of {LANGUAGES}")
    offense = OFFENSE_CLASSES_NO_OTO if lang == "malayalam" else OFFENSE_CLASSES
    return {
        SENTIMENT_TASK: LabelSchema(SENTIMENT_TASK, SENTIMENT_CLASSES),
        OFFENSE_TASK: LabelSchema(OFFENSE_TASK, offense),
    }


@dataclass(frozen=True)
class Record:
    text: str
    labels: dict[str, int]


@dataclass
class Corpus:
    records: list[Record]
    schemas: dict[str, LabelSchema]
    language: str

    def __len__(self) -> int:
        return len(self.records)

    @property
    def tasks(self) -> list[str]:
        return list(self.schemas)


@dataclass
class SplitSet:
    train: Corpus
    val: Corpus
    test: Corpus


def _norm_text(text: str) -> str:
    # the reader drops a BOM only at the start of a file, so a comment that
    # began with U+FEFF would lose it once written first: trim it like whitespace
    text = unicodedata.normalize("NFC", text).strip()
    while text[:1] == "\ufeff" or text[-1:] == "\ufeff":
        text = text.strip("\ufeff").strip()
    return text


def fold_word(text: str) -> str:
    """A typed word as it compares: trimmed, then lower-cased if ASCII; any other
    word stays as typed, so no look-alike (Kelvin sign, `ſ`, `ﬂ`) folds to ASCII."""
    text = text.strip()
    return text.lower() if text.isascii() else text


def _read_rows(path: str) -> list[tuple[int, list[str]]]:
    rows = []
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                rows.append((lineno, line.split("\t")))
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text ({err.reason})") from None
    if not rows:
        raise DataError(f"{path}: file contains no rows")
    return rows


def _is_header(cols: list[str], schemas_by_col: list[LabelSchema]) -> bool:
    if len(cols) != 1 + len(schemas_by_col):
        return False  # malformed row, not a header
    for value, schema in zip(cols[1:], schemas_by_col):
        try:
            schema.index(value)
            return False
        except DataError:
            pass
    return True


def _ingest(path: str, schemas_by_col: list[LabelSchema]) -> dict[str, list[int]]:
    """Shared row-level policy: collect bad rows, fail when over the limit.
    Maps each text to its labels in first-seen order; a repeated comment
    keeps its first labels, and every good row counts toward the limit."""
    rows = _read_rows(path)
    n_cols = 1 + len(schemas_by_col)
    if _is_header(rows[0][1], schemas_by_col):
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: only a header row, no data")
    parsed: dict[str, list[int]] = {}
    bad: list[str] = []
    for lineno, cols in rows:
        if len(cols) != n_cols:
            bad.append(f"line {lineno}: expected {n_cols} tab-separated columns, got {len(cols)}")
            continue
        text = _norm_text(cols[0])
        if not text:
            bad.append(f"line {lineno}: empty text column")
            continue
        try:
            labels = [schema.index(cols[1 + i]) for i, schema in enumerate(schemas_by_col)]
        except DataError as err:
            bad.append(f"line {lineno}: {err}")
            continue
        parsed.setdefault(text, labels)
    if bad and len(bad) > BAD_ROW_LIMIT * len(rows):
        detail = "\n".join(bad[:20])
        raise DataError(f"{path}: {len(bad)} bad rows (over the {BAD_ROW_LIMIT:.0%} limit):\n{detail}")
    return parsed


def load_joint_tsv(path: str, schemas: dict[str, LabelSchema], language: str) -> Corpus:
    """Three-column TSV: text, sentiment label, offense label."""
    tasks = list(schemas)
    parsed = _ingest(path, [schemas[t] for t in tasks])
    records = [Record(text=t, labels=dict(zip(tasks, labels))) for t, labels in parsed.items()]
    return Corpus(records=records, schemas=dict(schemas), language=language)


def merge_task_files(
    sentiment_path: str,
    offense_path: str,
    schemas: dict[str, LabelSchema],
    language: str,
) -> tuple[Corpus, int, int]:
    """Inner-join two 2-column task files on exact (normalized) text. Returns
    the corpus and the count of distinct texts each file lost to the join."""
    sent = _ingest(sentiment_path, [schemas[SENTIMENT_TASK]])
    off = _ingest(offense_path, [schemas[OFFENSE_TASK]])
    records = [
        Record(text=t, labels={SENTIMENT_TASK: labels[0], OFFENSE_TASK: off[t][0]})
        for t, labels in sent.items()
        if t in off
    ]
    corpus = Corpus(records=records, schemas=dict(schemas), language=language)
    return corpus, len(sent) - len(records), len(off) - len(records)


def class_counts(corpus: Corpus, task: str) -> list[int]:
    """Per-class record counts in schema order."""
    if task not in corpus.schemas:
        raise ContractError(f"unknown task {task!r}; corpus has {corpus.tasks}")
    counts = [0] * corpus.schemas[task].n_classes
    for rec in corpus.records:
        counts[rec.labels[task]] += 1
    return counts


def check_ratios(ratios: tuple[float, ...], name: str) -> None:
    """A ContractError naming `name` unless `ratios`, the train, val and test
    shares, are three finite, nonnegative numbers that sum to 1."""
    finite = all(math.isfinite(r) and r >= 0 for r in ratios)
    if len(ratios) != 3 or not finite or abs(sum(ratios) - 1.0) > 1e-9:
        raise ContractError(
            f"{name} must be three finite, nonnegative numbers that sum to 1, got {ratios}"
        )


def check_stratify_task(task: str, schemas: dict, name: str) -> None:
    """A ContractError naming `name` unless `task` is one of the tasks of `schemas`."""
    if task not in schemas:
        raise ContractError(f"{name} must be one of {tuple(schemas)}, got {task!r}")


def stratified_split(
    corpus: Corpus, ratios: tuple[float, float, float], seed: int, stratify_task: str
) -> SplitSet:
    """Per-class seeded shuffle, then floor/floor/remainder partition.

    Classes with fewer than 3 members go entirely to train (warned via the
    returned sizes rather than a log dependency).
    """
    check_ratios(ratios, "ratios")
    check_stratify_task(stratify_task, corpus.schemas, "stratify_task")
    by_class: dict[int, list[Record]] = {}
    for rec in corpus.records:
        by_class.setdefault(rec.labels[stratify_task], []).append(rec)
    rng = stream(seed, "stratified-split")
    train: list[Record] = []
    val: list[Record] = []
    test: list[Record] = []
    for cls in sorted(by_class):
        members = list(by_class[cls])
        order = rng.permutation(len(members))
        members = [members[i] for i in order]
        if len(members) < 3:
            train.extend(members)
            continue
        n_train = int(ratios[0] * len(members))
        n_val = int(ratios[1] * len(members))
        train.extend(members[:n_train])
        val.extend(members[n_train : n_train + n_val])
        test.extend(members[n_train + n_val :])

    def sub(records: list[Record]) -> Corpus:
        return Corpus(records=records, schemas=dict(corpus.schemas), language=corpus.language)

    return SplitSet(train=sub(train), val=sub(val), test=sub(test))


@dataclass(frozen=True)
class Batch:
    """Encoded comments and their labels: one batch, or a whole split."""

    seqs: tuple[TokenSeq, ...]
    labels: dict[str, tuple[int, ...]] = field(compare=False)

    def __len__(self) -> int:
        return len(self.seqs)


def encode_texts(split: Corpus, vocab: Vocab, max_len: int) -> tuple[TokenSeq, ...]:
    """Every comment of a split, encoded once, in corpus order."""
    if not split.records:
        raise ContractError("cannot encode an empty split")
    return tuple(encode(rec.text, vocab, max_len) for rec in split.records)


def encode_split(split: Corpus, vocab: Vocab, max_len: int) -> Batch:
    """`encode_texts` of a split, with its labels."""
    seqs = encode_texts(split, vocab, max_len)
    return Batch(seqs, {t: tuple(rec.labels[t] for rec in split.records) for t in split.tasks})


def batches(encoded: Batch, batch_size: int, seed: int) -> list[Batch]:
    """Group an encoded split into fixed-size batches (last one partial),
    in the order of a seeded permutation."""
    n = len(encoded)
    order = stream(seed, "batch-shuffle").permutation(n)
    return [
        Batch(
            seqs=tuple(encoded.seqs[i] for i in chunk),
            labels={t: tuple(labels[i] for i in chunk) for t, labels in encoded.labels.items()},
        )
        for chunk in (order[start : start + batch_size] for start in range(0, n, batch_size))
    ]


# ---------------------------------------------------------------------------
# split persistence (written by `mtlc split` and the toy, readable by load_joint_tsv)
# ---------------------------------------------------------------------------


def corpus_to_tsv(corpus: Corpus) -> str:
    tasks = corpus.tasks
    lines = []
    for rec in corpus.records:
        labels = [corpus.schemas[t].classes[rec.labels[t]] for t in tasks]
        lines.append("\t".join([rec.text] + labels))
    return "\n".join(lines) + ("\n" if lines else "")


def write_splits(
    directory: str,
    splits: SplitSet,
    seed: int,
    ratios: tuple[float, float, float],
    stratify_task: str,
) -> dict[str, str]:
    """Write a split directory, made if missing: train.tsv, val.tsv and
    test.tsv, then manifest.txt, their human-readable provenance. Returns
    each TSV's path by split name."""
    os.makedirs(directory, exist_ok=True)
    manifest = [
        f"seed = {seed}",
        f"ratios = {ratios[0]},{ratios[1]},{ratios[2]}",
        f"stratify_task = {stratify_task}",
    ]
    paths = {}
    for name, part in (("train", splits.train), ("val", splits.val), ("test", splits.test)):
        paths[name] = os.path.join(directory, f"{name}.tsv")
        write_atomic(paths[name], corpus_to_tsv(part))
        manifest.append(f"{name}.size = {len(part)}")
        for task in part.tasks:
            counts = ",".join(str(c) for c in class_counts(part, task))
            manifest.append(f"{name}.{task}.counts = {counts}")
    write_atomic(os.path.join(directory, "manifest.txt"), "\n".join(manifest) + "\n")
    return paths
