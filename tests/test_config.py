"""Flat-text run configuration parsing and validation."""

import dataclasses
import re
from pathlib import Path

import pytest

from mtlc.config import _DEFAULTS, _KEYS, REGIMES, _build, load_config, parse_flat
from mtlc.data import LANGUAGES
from mtlc.encoder import EncoderConfig
from mtlc.errors import ConfigError, ContractError
from mtlc.losses import LossKind
from mtlc.mtl import PENALTIES, default_coupled_layers
from mtlc.text import MODES

MINIMAL = """
data.train = {train}
data.val = {val}
"""


@pytest.fixture
def paths():
    # loading a config reads no file, so the paths need not exist
    return {"train": "train.tsv", "val": "val.tsv"}


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

    def test_reads_no_file(self, tmp_path):
        # paths are values: absent files and an output.dir under a file parse
        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        text = f"data.train = /gone.tsv\ndata.val = /gone2.tsv\noutput.dir = {tmp_path}/afile/run\n"
        cfg = load_config(text)
        assert (cfg.raw["data.train"], cfg.raw["data.val"]) == ("/gone.tsv", "/gone2.tsv")
        assert cfg.raw["output.dir"] == f"{tmp_path}/afile/run"

    @pytest.mark.parametrize(
        "line,field",
        [
            ("train.epochs = 0", "epochs"),
            ("train.batch_size = 7", "batch_size"),
            ("train.lr = -1", "train.lr"),
            ("train.beta1 = 1", "train.beta1"),
            ("train.beta2 = 0", "train.beta2"),
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
            # each named at most once: a repeat would take its proximal step twice
            ("regime.kind = soft_share\nregime.coupled_layers = layer0.wq, layer0.wq",
             r"regime.coupled_layers: named more than once: \['layer0.wq'\]"),
            ("regime.kind = stl\nregime.coupled_layers = layer0.wv,layer0.wq,layer0.wv,layer0.wo,layer0.wq",
             r"regime.coupled_layers: named more than once: \['layer0.wq', 'layer0.wv'\]"),
            # a list that names no parameter, in every regime: uncoupled towers
            # are spelled `regime.lambda = 0`
            ("regime.kind = soft_share\nregime.coupled_layers = ,", "regime.coupled_layers"),
            ("regime.coupled_layers = ,", "regime.coupled_layers"),
            ("regime.kind = stl\nregime.coupled_layers = , ,", "regime.coupled_layers"),
            # shared regimes with no task loss to minimize
            ("regime.task_weights = 0,0", "regime.task_weights"),
            ("regime.kind = soft_share\nregime.task_weights = 0,0", "regime.task_weights"),
        ],
    )
    def test_out_of_bounds_fields_are_named(self, paths, line, field):
        with pytest.raises(ConfigError, match=field):
            load_config(config_text(paths, line + "\n"))

    @pytest.mark.parametrize(
        "line,message",
        [
            ("model.dropout = 1.0", "model.dropout must be in [0, 1), got 1.0"),
            ("regime.lambda = -2", "regime.lambda must be >= 0, got -2.0"),
            ("regime.task_weights = 1,1,1", "regime.task_weights: 3 weights for 2 tasks"),
            ("regime.task_weights = -1,1", "regime.task_weights must be nonnegative, got (-1.0, 1.0)"),
            ("text.max_len = 2", "text.max_len must be >= 3, got 2"),
            ("train.lr = 0", "train.lr must be > 0, got 0.0"),
            ("model.d_model = 30", "model.d_model (30) must be divisible by n_heads (4)"),
            ("train.batch_size = 7", "train.batch_size must be one of (16, 32, 64), got 7"),
        ],
    )
    def test_range_errors_name_the_key_in_place_of_the_field(self, paths, line, message):
        with pytest.raises(ConfigError) as err:
            load_config(config_text(paths, line + "\n"))
        assert str(err.value) == message

    @pytest.mark.parametrize("kind", ["hard_share", "soft_share"])
    def test_one_zero_task_weight_stays_valid(self, paths, kind):
        # zero-weighted hard sharing is criterion 3's STL equivalence
        cfg = load_config(config_text(paths, f"regime.kind = {kind}\nregime.task_weights = 0,1\n"))
        assert cfg.regime.task_weights == (0.0, 1.0)

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
        again = load_config(cfg.to_text())
        assert again.raw == cfg.raw
        assert again.to_text() == cfg.to_text()


SPELLINGS = {
    "CE": LossKind.CROSS_ENTROPY,
    "CROSS_ENTROPY": LossKind.CROSS_ENTROPY,
    "CROSS-ENTROPY": LossKind.CROSS_ENTROPY,
    "HL": LossKind.HINGE,
    "HINGE": LossKind.HINGE,
    "FL": LossKind.FOCAL,
    "FOCAL": LossKind.FOCAL,
    "KLD": LossKind.KLD,
    "KL": LossKind.KLD,
}


def load_line(line):
    return load_config(f"data.train = a\ndata.val = b\n{line}\n")


class TestLossSpellings:
    def test_aliases(self):
        for spelling, kind in SPELLINGS.items():
            mixed = "".join(c.lower() if i % 2 else c for i, c in enumerate(spelling))
            for text in (spelling, spelling.lower(), mixed, f"  {mixed}  ", f"\t{spelling.lower()} "):
                cfg = load_line(f"regime.loss = {text}")
                assert all(lc.kind is kind for lc in cfg.regime.losses.values()), text

    def test_unknown(self):
        for text in ("mse", "cross entropy", "KL_D", "C E", ""):
            with pytest.raises(ConfigError, match="^regime.loss: expected one of"):
                load_line(f"regime.loss = {text}")


BOOLEANS = ("true", "yes", "1", "false", "no", "0")
WORDS = {
    "data.format": ("joint",),
    "data.language": LANGUAGES,
    "text.mode": MODES,
    "regime.kind": REGIMES,
    "regime.task": ("sentiment", "offense"),
    "regime.penalty": PENALTIES,
    "regime.class_weights": BOOLEANS,
    "train.shuffle": BOOLEANS,
}


class TestWords:
    """Every typed word compares through `data.fold_word`: trimmed, and
    lower-cased only if it is ASCII."""

    @pytest.mark.parametrize(
        "line",
        [
            "regime.loss = \ufb02",  # the fl ligature
            "regime.loss = CRO\u017f\u017f-ENTROPY",  # long s
            "regime.loss_offense = \ufb02",
            "regime.loss = \u212aLD",  # the Kelvin sign
            "data.language = \u212aannada",
        ],
    )
    def test_a_non_ascii_look_alike_is_no_word(self, line):
        key = line.split(" ", 1)[0]
        with pytest.raises(ConfigError, match=f"^{key}: expected one of"):
            load_line(line)

    @pytest.mark.parametrize("key,words", list(WORDS.items()))
    def test_every_ascii_case_of_a_word_parses_to_its_value(self, key, words):
        parse = _KEYS[key][0]
        for word in words:
            for text in (word.upper(), word.title(), f" {word.swapcase()}\t"):
                assert parse(text) == parse(word), (key, text)

    def test_the_format_word_folds_case(self):
        assert load_line("data.format = JOINT").raw["data.format"] == "JOINT"

    def test_coupled_layers_default_folds_case(self):
        cfg = load_line("regime.kind = soft_share\nregime.coupled_layers = DEFAULT")
        assert cfg.regime.soft.coupled_layer_names == default_coupled_layers(2)


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
    defaults = load_config("data.train = train.tsv\ndata.val = val.tsv\n")
    assert defaults.to_text() == DEFAULT_TEXT
    assert load_config(DEFAULT_TEXT).to_text() == DEFAULT_TEXT


def test_readme_config_block_loads_with_every_default():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n(.*?)```", readme.split("## Configuration", 1)[1], re.S).group(1)
    values = parse_flat(block)  # a `#` after a value would stay part of it
    assert list(values) == list(_KEYS)
    for key, default in _DEFAULTS.items():
        # the required paths are shown as `...`
        shown = "..." if key in ("data.train", "data.val") else default
        assert values[key] == shown, key
    load_config(block)


def test_dataclass_defaults_agree_with_the_config_defaults():
    # a library caller who builds the dataclasses directly gets the README's
    # defaults: a field-homed key's default text parses back to its field's default
    for key, (parse, home) in _KEYS.items():
        if not isinstance(home, str):
            cls, name = home
            field = {f.name: f for f in dataclasses.fields(cls)}[name]
            assert parse(_DEFAULTS[key]) == field.default, key


def test_an_error_on_a_field_no_key_fills_propagates_unchanged():
    typed = {key: parse(_DEFAULTS[key]) for key, (parse, _) in _KEYS.items()}
    with pytest.raises(ContractError, match=r"^vocab_size must be >= 1, got 0$"):
        _build(EncoderConfig, typed, vocab_size=0)
