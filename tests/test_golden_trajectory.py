"""The toy's runs, trained for 3 epochs, against a committed trajectory.

Each run is one of the toy's configs (`python -m mtlc.toy`) at 3 epochs:
hard sharing, STL sentiment, and soft sharing with each penalty. The
trajectory records each epoch's train loss per task, each parameter's
Frobenius norm after training and the logits of the first 8 validation
comments. At 3 epochs, moving every initial weight by one ulp moves these
figures by at most about 2e-11 relative, so a comparison at rtol 1e-9
holds on any machine's float64 arithmetic; a changed dropout stream, init
scale or optimizer constant moves them far beyond it.

After a change meant to move the arithmetic, regenerate the file from the
repository root:

    PYTHONPATH=src python -m tests.test_golden_trajectory
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from mtlc.config import load_config, parse_flat
from mtlc.data import encode_texts, load_joint_tsv, schemas_for_language
from mtlc.mtl import build_model, predict_logits, train
from mtlc.text import build_vocab
from mtlc.toy import materialize

GOLDEN = Path(__file__).resolve().parent / "golden_trajectory.json"
EPOCHS = 3
LOGIT_ROWS = 8
RTOL = 1e-9

# run -> (the toy config it starts from, the lines it changes)
RUNS = {
    "hard": ("toy", {}),
    "stl_sentiment": ("stl_sentiment", {}),
    "soft_frobenius": ("toy", {"regime.kind": "soft_share", "regime.penalty": "frobenius"}),
    "soft_trace_norm": ("toy", {"regime.kind": "soft_share", "regime.penalty": "trace_norm"}),
}


def trajectory(configs: dict[str, str], run: str) -> dict:
    """Train `run` in-process from the toy's config files `configs`."""
    toy_run, changes = RUNS[run]
    values = parse_flat(Path(configs[toy_run]).read_text(encoding="utf-8"))
    values.update({**changes, "train.epochs": str(EPOCHS)})
    cfg = load_config("".join(f"{key} = {value}\n" for key, value in values.items()))
    schemas = schemas_for_language(cfg.language)
    train_split = load_joint_tsv(cfg.raw["data.train"], schemas, cfg.language)
    val_split = load_joint_tsv(cfg.raw["data.val"], schemas, cfg.language)
    vocab = build_vocab((rec.text for rec in train_split.records), cfg.text_mode, cfg.max_size)
    enc_cfg = dataclasses.replace(cfg.encoder, vocab_size=len(vocab))
    n_classes = {task: schemas[task].n_classes for task in cfg.regime.tasks}
    model = build_model(cfg.regime, enc_cfg, n_classes, cfg.train_cfg.seed)
    epochs = train(model, train_split, val_split, vocab, cfg.train_cfg)
    seqs = encode_texts(val_split, vocab, enc_cfg.max_len)[:LOGIT_ROWS]
    return {
        "train_loss": {t: [ep.train_loss[t] for ep in epochs] for t in cfg.regime.tasks},
        "param_norm": {name: float(np.linalg.norm(p.data)) for name, p in model.params.items()},
        "val_logits": {t: logits.data.tolist() for t, logits in predict_logits(model, seqs).items()},
    }


@pytest.fixture(scope="module")
def toy_configs(tmp_path_factory):
    return materialize(str(tmp_path_factory.mktemp("toy")))


@pytest.mark.parametrize("run", list(RUNS))
def test_a_toy_run_retraces_the_golden_trajectory(toy_configs, run):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[run]
    actual = trajectory(toy_configs, run)
    for figure, by_name in golden.items():
        assert actual[figure].keys() == by_name.keys(), figure
        for name, expected in by_name.items():
            np.testing.assert_allclose(
                actual[figure][name], expected, rtol=RTOL, atol=0, err_msg=f"{figure} {name}"
            )


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        configs = materialize(directory)
        golden = {run: trajectory(configs, run) for run in RUNS}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
