"""Flat-text run configuration parsing and validation."""

import re
from pathlib import Path

import pytest

from mtlc.config import _KEYS, load_config, parse_flat
from mtlc.errors import ConfigError
from mtlc.losses import LossKind

MINIMAL = """
data.train = {train}
data.val = {val}
"""


@pytest.fixture
def paths(tmp_path):
    train = tmp_path / "train.tsv"
    val = tmp_path / "val.tsv"
    train.write_text("x\tPositive\tNot offensive\n", encoding="utf-8")
    val.write_text("y\tNegative\tOther language\n", encoding="utf-8")
    return {"train": str(train), "val": str(val)}


def config_text(paths, extra=""):
    return MINIMAL.format(**paths) + extra


class TestParseFlat:
    def test_comments_and_blanks_ignored(self):
        out = parse_flat("# a comment\n\ntrain.epochs = 3\n")
        assert out == {"train.epochs": "3"}

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="model.width"):
            parse_flat("model.width = 9")

    def test_duplicate_key_named(self):
        with pytest.raises(ConfigError, match="duplicate.*train.epochs"):
            parse_flat("train.epochs = 1\ntrain.epochs = 2")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_flat("train.epochs 3")


class TestLoadConfig:
    def test_table5_defaults(self, paths):
        cfg = load_config(config_text(paths))
        assert cfg.train_cfg.epochs == 5
        assert cfg.train_cfg.batch_size == 32
        assert cfg.encoder.dropout_p == 0.4
        assert cfg.regime.task_weights == (1.0, 1.0)
        assert all(lc.kind is LossKind.CROSS_ENTROPY for lc in cfg.regime.losses.values())

    def test_missing_path_rejected(self, paths):
        with pytest.raises(ConfigError, match="data.val"):
            load_config(f"data.train = {paths['train']}\n")

    def test_nonexistent_path_named(self, paths):
        with pytest.raises(ConfigError, match="data.train"):
            load_config(f"data.train = /nope.tsv\ndata.val = {paths['val']}\n")

    @pytest.mark.parametrize("key", ["data.train", "data.val", "data.test"])
    def test_directory_path_named(self, paths, tmp_path, key):
        given = {"data.train": paths["train"], "data.val": paths["val"], key: str(tmp_path)}
        text = "".join(f"{k} = {v}\n" for k, v in given.items())
        with pytest.raises(ConfigError, match=f"{key}: path .* is not a file"):
            load_config(text)

    def test_check_paths_off_for_embedded_configs(self):
        cfg = load_config("data.train = /gone.tsv\ndata.val = /gone2.tsv\n", check_paths=False)
        assert cfg.train_path == "/gone.tsv"

    @pytest.mark.parametrize(
        "line,field",
        [
            ("train.epochs = 0", "epochs"),
            ("train.batch_size = 7", "batch_size"),
            ("train.lr = -1", "learning_rate"),
            ("model.dropout = 1.0", "model.dropout"),
            ("model.d_model = 30", "model.d_model"),
            ("text.max_len = 2", "text.max_len"),
            ("text.mode = bpe", "text.mode"),
            ("regime.kind = multitask", "regime.kind"),
            ("regime.task_weights = 1,x", "regime.task_weights"),
            ("regime.lambda = -2", "lambda"),
            ("data.language = danish", "data.language"),
            ("train.epochs = five", "train.epochs"),
            ("train.lr = nan", "train.lr"),
            ("regime.lambda = nan", "regime.lambda"),
            ("regime.task_weights = nan,1", "regime.task_weights"),
            ("train.clip_norm = inf", "train.clip_norm"),
            # every key is checked, whether or not the regime reads it
            ("regime.penalty = bogus", "regime.penalty"),
            ("regime.task = bogus", "regime.task"),
            ("regime.kind = stl\nregime.loss_offense = bogus", "regime.loss_offense"),
            # coupled-layer names are encoder parameters, checked for every regime
            ("regime.coupled_layers = layer9.wq", "regime.coupled_layers"),
            ("regime.kind = stl\nregime.coupled_layers = layer0.wq,wq", "regime.coupled_layers"),
            ("regime.kind = soft_share\nregime.coupled_layers = layer9.wq", "regime.coupled_layers"),
            ("model.n_layers = 1\nregime.kind = soft_share\nregime.coupled_layers = layer1.wo",
             "regime.coupled_layers"),
            ("regime.kind = soft_share\nregime.coupled_layers = head.offense.w_out",
             "regime.coupled_layers"),
        ],
    )
    def test_out_of_bounds_fields_are_named(self, paths, line, field):
        with pytest.raises(ConfigError, match=field):
            load_config(config_text(paths, line + "\n"))

    def test_seed_override_wins(self, paths):
        cfg = load_config(config_text(paths, "train.seed = 3\n"), seed_override=99)
        assert cfg.train_cfg.seed == 99
        assert cfg.raw["train.seed"] == "99"

    def test_stl_task_selection(self, paths):
        cfg = load_config(config_text(paths, "regime.kind = stl\nregime.task = offense\n"))
        assert cfg.regime.tasks == ("offense",)

    def test_stl_trains_at_weight_one(self, paths):
        cfg = load_config(config_text(paths, "regime.kind = stl\nregime.task_weights = 0.3,2\n"))
        assert cfg.regime.task_weights == (1.0,)

    def test_per_task_loss_override(self, paths):
        cfg = load_config(
            config_text(paths, "regime.loss = CE\nregime.loss_offense = FL\n")
        )
        assert cfg.regime.losses["sentiment"].kind is LossKind.CROSS_ENTROPY
        assert cfg.regime.losses["offense"].kind is LossKind.FOCAL

    def test_soft_share_default_coupling(self, paths):
        cfg = load_config(
            config_text(paths, "regime.kind = soft_share\nmodel.n_layers = 2\n")
        )
        assert "layer1.ffn_w2" in cfg.regime.soft.coupled_layer_names
        assert len(cfg.regime.soft.coupled_layer_names) == 12

    def test_explicit_coupling_list(self, paths):
        cfg = load_config(
            config_text(
                paths, "regime.kind = soft_share\nregime.coupled_layers = layer0.wq, layer0.wv\n"
            )
        )
        assert cfg.regime.soft.coupled_layer_names == ("layer0.wq", "layer0.wv")

    def test_to_text_round_trips(self, paths):
        cfg = load_config(config_text(paths, "train.epochs = 3\nregime.loss = FL\n"))
        again = load_config(cfg.to_text(), check_paths=False)
        assert again.raw == cfg.raw
        assert again.to_text() == cfg.to_text()


# the default `to_text` output: every checkpoint embeds this text and the
# parser rejects unknown keys, so its key order and byte format are a file
# format that existing checkpoints depend on
DEFAULT_TEXT = (
    "data.train = train.tsv\n"
    "data.val = val.tsv\n"
    "data.test = \n"
    "data.format = joint\n"
    "data.language = kannada\n"
    "text.mode = char\n"
    "text.min_freq = 1\n"
    "text.max_size = 20000\n"
    "text.max_len = 64\n"
    "model.d_model = 64\n"
    "model.n_heads = 4\n"
    "model.n_layers = 2\n"
    "model.d_ffn = 128\n"
    "model.dropout = 0.4\n"
    "regime.kind = hard_share\n"
    "regime.task = sentiment\n"
    "regime.loss = CE\n"
    "regime.loss_sentiment = \n"
    "regime.loss_offense = \n"
    "regime.focal_gamma = 2.0\n"
    "regime.kld_epsilon = 0.1\n"
    "regime.class_weights = false\n"
    "regime.task_weights = 1,1\n"
    "regime.penalty = frobenius\n"
    "regime.lambda = 0.1\n"
    "regime.coupled_layers = default\n"
    "train.epochs = 5\n"
    "train.batch_size = 32\n"
    "train.lr = 0.001\n"
    "train.beta1 = 0.9\n"
    "train.beta2 = 0.999\n"
    "train.epsilon = 1e-8\n"
    "train.weight_decay = 0.01\n"
    "train.clip_norm = 1.0\n"
    "train.seed = 0\n"
    "train.shuffle = true\n"
    "output.dir = runs/run\n"
)


def test_checkpoint_config_format_is_pinned():
    defaults = load_config("data.train = train.tsv\ndata.val = val.tsv\n", check_paths=False)
    assert defaults.to_text() == DEFAULT_TEXT
    assert load_config(DEFAULT_TEXT, check_paths=False).to_text() == DEFAULT_TEXT


def test_readme_config_block_lists_every_key_with_its_default():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    rows = [line.split("#", 1)[0].partition("=") for line in block.splitlines()]
    assert [key.strip() for key, _, _ in rows] == list(_KEYS)
    required = ("data.train", "data.val")
    for (key, _, shown), (default, _) in zip(rows, _KEYS.values()):
        key, shown = key.strip(), shown.strip()
        assert shown == default or (key in required and shown == "..."), key
