"""Bundled separable toy corpus: 200 comments whose labels are fully
determined by two marker words, one per task.

`python -m mtlc.toy DIR` materializes the corpus, an 80/10/10 split, and
ready-to-run configs, so the whole pipeline can be exercised in seconds:

    python -m mtlc.toy runs/toy
    mtlc train --config runs/toy/toy.cfg
"""

from __future__ import annotations

import os
import sys

from .checkpoint import write_atomic
from .data import (
    OFFENSE_CLASSES,
    SENTIMENT_CLASSES,
    SENTIMENT_TASK,
    load_joint_tsv,
    schemas_for_language,
    stratified_split,
    write_splits,
)

TOY_SEED = 5
TOY_RATIOS = (0.8, 0.1, 0.1)
TOY_STRATIFY_TASK = SENTIMENT_TASK
TOY_SIZE = 200

_SENT_MARKERS = ("happyword", "sadword", "mixword", "okword", "langword")
_OFF_MARKERS = ("cleanword", "rudeword", "attackword", "groupword", "otherword", "foreignword")

_CONFIG_TEMPLATE = """\
# toy run: separable two-task corpus, hard parameter sharing
data.train = {train}
data.val = {val}
data.test = {test}
data.language = kannada
text.mode = word
text.min_freq = 1
text.max_size = 4000
text.max_len = 8
model.d_model = 64
model.n_heads = 4
model.n_layers = 1
model.d_ffn = 128
model.dropout = 0.1
regime.kind = {kind}
regime.task = {task}
regime.loss = CE
train.epochs = 30
train.batch_size = 16
train.lr = 0.003
train.weight_decay = 0.01
train.clip_norm = 1.0
train.seed = 1
train.shuffle = true
output.dir = {out}
"""


def toy_rows() -> list[tuple[str, str, str]]:
    """(text, sentiment label, offense label) rows; deterministic."""
    rows = []
    for i in range(TOY_SIZE):
        s = i % len(_SENT_MARKERS)
        o = (i // len(_SENT_MARKERS)) % len(_OFF_MARKERS)
        text = f"{_SENT_MARKERS[s]} {_OFF_MARKERS[o]} u{i}"
        rows.append((text, SENTIMENT_CLASSES[s], OFFENSE_CLASSES[o]))
    return rows


def toy_tsv() -> str:
    return "".join(f"{t}\t{s}\t{o}\n" for t, s, o in toy_rows())


def materialize(directory: str) -> dict[str, str]:
    """Write toy.tsv, split files, and train configs into `directory`.

    Returns the paths of the generated configs keyed by run name.
    """
    os.makedirs(directory, exist_ok=True)
    tsv_path = os.path.join(directory, "toy.tsv")
    write_atomic(tsv_path, toy_tsv())
    corpus = load_joint_tsv(tsv_path, schemas_for_language("kannada"), "kannada")
    splits = stratified_split(corpus, TOY_RATIOS, TOY_SEED, TOY_STRATIFY_TASK)
    paths = write_splits(directory, splits, TOY_SEED, TOY_RATIOS, TOY_STRATIFY_TASK)

    configs = {}
    for run, kind, task in (
        ("toy", "hard_share", "sentiment"),
        ("stl_sentiment", "stl", "sentiment"),
        ("stl_offense", "stl", "offense"),
    ):
        configs[run] = os.path.join(directory, f"{run}.cfg")
        write_atomic(
            configs[run],
            _CONFIG_TEMPLATE.format(
                **paths, kind=kind, task=task, out=os.path.join(directory, f"run_{run}")
            ),
        )
    return configs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m mtlc.toy DIRECTORY", file=sys.stderr)
        return 2
    configs = materialize(argv[0])
    for run, path in configs.items():
        print(f"{run}: mtlc train --config {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
