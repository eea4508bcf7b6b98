"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import json
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtlc.cli import main
from mtlc.data import schemas_for_language
from mtlc.errors import ConfigError, MtlcError
from mtlc.metrics import build_report, report_to_dict
from mtlc.toy import materialize, toy_tsv


# what `mtlc train` writes
ARTIFACTS = ("checkpoint.mtlc", "vocab.txt", "trace.tsv", "report.json", "report.txt")
# what `mtlc split` writes
SPLIT_FILES = ("train.tsv", "val.tsv", "test.tsv", "manifest.txt")
# a `TestTrain.run_cfg` edit: soft sharing with the trace-norm penalty
SOFT_TRACE_NORM = ("regime.kind = hard_share", "regime.kind = soft_share\nregime.penalty = trace_norm")


def unread(path, *args):
    """A stand-in for a reader that must not run."""
    raise AssertionError(f"read {path}")


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("toy")
    materialize(str(directory))
    return directory


@pytest.fixture(scope="module")
def fast_cfg(toy_dir):
    """Toy config dialed down for quick CLI runs."""
    text = (toy_dir / "toy.cfg").read_text(encoding="utf-8")
    text = text.replace("train.epochs = 30", "train.epochs = 2")
    text = text.replace("model.d_model = 64", "model.d_model = 16")
    text = text.replace("model.d_ffn = 128", "model.d_ffn = 32")
    text = text.replace(
        f"output.dir = {toy_dir}/run_toy", f"output.dir = {toy_dir}/run_fast"
    )
    path = toy_dir / "fast.cfg"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained_run(toy_dir, fast_cfg):
    assert main(["train", "--config", str(fast_cfg)]) == 0
    return toy_dir / "run_fast"


class TestSplit:
    def test_default_ratios_on_100_rows(self, tmp_path):
        src = tmp_path / "corpus.tsv"
        lines = toy_tsv().splitlines()[:100]
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "splits"
        assert main(["split", "--input", str(src), "--out-dir", str(out), "--seed", "3"]) == 0
        sizes = {
            name: len((out / f"{name}.tsv").read_text(encoding="utf-8").splitlines())
            for name in ("train", "val", "test")
        }
        assert sizes["train"] + sizes["val"] + sizes["test"] == 100
        assert sizes["train"] == 80
        assert (out / "manifest.txt").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        src = tmp_path / "corpus.tsv"
        src.write_text(toy_tsv(), encoding="utf-8")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["split", "--input", str(src), "--out-dir", str(out), "--seed", "11"]) == 0
            outs.append(out)
        for fname in SPLIT_FILES:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_bad_labels_exit_3_with_line_number(self, tmp_path, capsys):
        src = tmp_path / "bad.tsv"
        rows = ["ok {}\tPositive\tNot offensive".format(i) for i in range(9)]
        rows.insert(2, "broken\tHappy\tNot offensive")
        src.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["split", "--input", str(src), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "line 3" in capsys.readouterr().err

    def test_merge_pair_inputs(self, toy_dir, tmp_path, capsys):
        sent = tmp_path / "s.tsv"
        off = tmp_path / "o.tsv"
        sent.write_text("".join(f"c{i}\tPositive\n" for i in range(30)), encoding="utf-8")
        off.write_text("".join(f"c{i}\tNot offensive\n" for i in range(5, 30)), encoding="utf-8")
        out = tmp_path / "m"
        code = main(
            [
                "split",
                "--sentiment-input", str(sent),
                "--offense-input", str(off),
                "--out-dir", str(out),
                "--ratios", "1,0,0",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "5 sentiment-only" in err
        train_rows = (out / "train.tsv").read_text(encoding="utf-8").splitlines()
        assert len(train_rows) == 25
        # the toy corpus cut into its two task files joins back into it, in
        # its order, so at the toy's seed it splits into the toy's files
        rows = [row.split("\t") for row in (toy_dir / "toy.tsv").read_text(encoding="utf-8").splitlines()]
        for path, column in ((sent, 1), (off, 2)):
            path.write_text("".join(f"{row[0]}\t{row[column]}\n" for row in rows), encoding="utf-8")
        out = tmp_path / "toy"
        argv = ["split", "--sentiment-input", str(sent), "--offense-input", str(off)]
        assert main([*argv, "--out-dir", str(out), "--seed", "5"]) == 0
        for fname in SPLIT_FILES:
            assert (out / fname).read_bytes() == (toy_dir / fname).read_bytes(), fname

    def test_stratify_task_folds_case(self, toy_dir, tmp_path):
        # `mtlc split` and the toy share one split writer: at the toy's seed
        # both spellings write the toy's own split files
        outs = []
        for name, task in (("a", "sentiment"), ("b", " Sentiment ")):
            outs.append(tmp_path / name)
            args = ["split", "--input", str(toy_dir / "toy.tsv"), "--out-dir", str(outs[-1])]
            assert main([*args, "--seed", "5", "--stratify-task", task]) == 0
        assert "stratify_task = sentiment\n" in (outs[1] / "manifest.txt").read_text(encoding="utf-8")
        for fname in SPLIT_FILES:
            toy = (toy_dir / fname).read_bytes()
            assert (outs[0] / fname).read_bytes() == toy == (outs[1] / fname).read_bytes(), fname

    def test_a_look_alike_language_exits_2(self, tmp_path, capsys):
        src = tmp_path / "corpus.tsv"
        src.write_text(toy_tsv(), encoding="utf-8")
        out = tmp_path / "o"
        # U+212A KELVIN SIGN in place of the K
        assert main(["split", "--input", str(src), "--out-dir", str(out), "--language", "\u212aannada"]) == 2
        assert "unknown language" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["split", "--out-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "body, why",
        [("", "no rows"), ("\n\n", "no rows"), ("text\tsentiment\toffense\n", "only a header")],
        ids=["empty", "blank lines", "header only"],
    )
    def test_input_without_data_rows_exits_3(self, tmp_path, capsys, body, why):
        src = tmp_path / "corpus.tsv"
        src.write_text(body, encoding="utf-8")
        assert main(["split", "--input", str(src), "--out-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(src) in err and why in err
        assert not (tmp_path / "o").exists()

    def test_os_error_from_a_command_exits_3(self, tmp_path, monkeypatch, capsys):
        import mtlc.data as data

        def full_disk(path, text):
            raise OSError(28, "No space left on device", path)

        src = tmp_path / "corpus.tsv"
        src.write_text(toy_tsv(), encoding="utf-8")
        monkeypatch.setattr(data, "write_atomic", full_disk)
        assert main(["split", "--input", str(src), "--out-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No space left on device" in err

    def test_non_finite_ratios_exit_2(self, tmp_path, capsys):
        src = tmp_path / "corpus.tsv"
        src.write_text(toy_tsv(), encoding="utf-8")
        out = tmp_path / "o"
        code = main(["split", "--input", str(src), "--out-dir", str(out), "--ratios", "nan,0.5,0.5"])
        assert code == 2
        assert "(nan, 0.5, 0.5)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--sentiment-input", "{src}"], "--offense-input"),
            (["--input", "{src}", "--ratios", "0.8,0.2"], "--ratios"),
            (["--input", "{src}", "--ratios", "a,b,c"], "--ratios"),
            (["--input", "{src}", "--ratios", "0.5,0.6,0.1"], "--ratios"),
            (["--input", "{src}", "--sentiment-input", "{src}", "--offense-input", "{src}"], "--input"),
        ],
        ids=["sentiment input alone", "two ratios", "ratios not numbers", "ratios sum to 1.2",
             "input with the pair"],
    )
    def test_bad_flags_exit_2_naming_the_flag(self, tmp_path, capsys, flags, named):
        src = tmp_path / "corpus.tsv"
        src.write_text(toy_tsv(), encoding="utf-8")
        out = tmp_path / "o"
        argv = ["split", *(flag.format(src=src) for flag in flags), "--out-dir", str(out)]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ratios", ["a,b,c", "0.8,0.2", "0.5,0.6,0.1"])
    def test_bad_ratios_exit_2_before_reading_input(self, tmp_path, capsys, ratios):
        # read first, the input's bad row would exit 3
        src = tmp_path / "bad.tsv"
        src.write_text("broken\tHappy\tNot offensive\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["split", "--input", str(src), "--out-dir", str(out), "--ratios", ratios]) == 2
        assert "--ratios" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_stratify_task_exits_2_before_reading_input(self, tmp_path, capsys):
        # read first, the input's bad row would exit 3
        src = tmp_path / "bad.tsv"
        src.write_text("broken\tHappy\tNot offensive\n", encoding="utf-8")
        out = tmp_path / "o"
        argv = ["split", "--input", str(src), "--out-dir", str(out), "--stratify-task", "bogus"]
        assert main(argv) == 2
        assert "--stratify-task" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["afile", "afile/x"])
    def test_out_dir_on_a_file_exits_2_before_reading_input(self, tmp_path, monkeypatch, capsys, out):
        import mtlc.cli as cli

        src = tmp_path / "corpus.tsv"
        src.write_text(toy_tsv(), encoding="utf-8")
        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        read = []
        monkeypatch.setattr(cli, "load_joint_tsv", lambda *args: read.append(args))
        assert main(["split", "--input", str(src), "--out-dir", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert "--out-dir" in err and str(tmp_path / out) in err
        assert read == []
        assert (tmp_path / "afile").read_text(encoding="utf-8") == "not a directory\n"

    def test_empty_out_dir_exits_2_before_reading_input(self, tmp_path, capsys):
        # read first, the input's bad row would exit 3
        src = tmp_path / "bad.tsv"
        src.write_text("broken\tHappy\tNot offensive\n", encoding="utf-8")
        assert main(["split", "--input", str(src), "--out-dir", ""]) == 2
        assert "--out-dir" in capsys.readouterr().err


class TestTrain:
    def test_artifacts_and_summary(self, trained_run, capsys):
        for name in ARTIFACTS:
            assert (trained_run / name).exists(), name
        trace = (trained_run / "trace.tsv").read_text(encoding="utf-8").splitlines()
        assert len(trace) == 1 + 2  # header + 2 epochs
        assert trace[0].split("\t")[0] == "epoch"
        report = json.loads((trained_run / "report.json").read_text(encoding="utf-8"))
        assert set(report["tasks"]) == {"sentiment", "offense"}

    @pytest.mark.parametrize("edits", [[], [SOFT_TRACE_NORM]], ids=["hard", "soft trace norm"])
    def test_repeat_run_is_byte_identical(self, toy_dir, fast_cfg, tmp_path, edits):
        cfg = self.run_cfg(toy_dir, fast_cfg, tmp_path, *edits)
        runs = []
        for _ in range(2):
            assert main(["train", "--config", cfg]) == 0
            runs.append({name: (tmp_path / "run" / name).read_bytes() for name in ARTIFACTS})
        for name, blob in runs[0].items():
            assert runs[1][name] == blob, name

    def test_failed_rename_exits_3_and_keeps_the_old_vocabulary(
        self, toy_dir, fast_cfg, tmp_path, monkeypatch, capsys
    ):
        import mtlc.checkpoint as checkpoint

        text = (
            fast_cfg.read_text(encoding="utf-8")
            .replace(f"output.dir = {toy_dir}/run_fast", f"output.dir = {tmp_path}/run")
            .replace("train.epochs = 2", "train.epochs = 1")
        )
        char_cfg, word_cfg = tmp_path / "char.cfg", tmp_path / "word.cfg"
        char_cfg.write_text(text.replace("text.mode = word", "text.mode = char"), encoding="utf-8")
        word_cfg.write_text(text, encoding="utf-8")
        assert main(["train", "--config", str(char_cfg)]) == 0
        old = (tmp_path / "run" / "vocab.txt").read_bytes()

        def full_disk(src, dst):
            raise OSError(28, "No space left on device", dst)

        monkeypatch.setattr(checkpoint.os, "replace", full_disk)
        assert main(["train", "--config", str(word_cfg)]) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert (tmp_path / "run" / "vocab.txt").read_bytes() == old

    def test_stale_vocabulary_of_the_same_size_exits_3(
        self, toy_dir, fast_cfg, tmp_path, monkeypatch, capsys
    ):
        import mtlc.checkpoint as checkpoint

        # two trainings into one output.dir whose vocabularies differ at one
        # size: the second writes its vocab.txt, then fails to rename its
        # checkpoint into place, which leaves the first run's checkpoint
        text = (
            fast_cfg.read_text(encoding="utf-8")
            .replace(f"output.dir = {toy_dir}/run_fast", f"output.dir = {tmp_path}/run")
            .replace("train.epochs = 2", "train.epochs = 1")
            .replace("text.max_size = 4000", "text.max_size = 12")
        )
        first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
        first.write_text(text, encoding="utf-8")
        second.write_text(
            text.replace(f"data.train = {toy_dir}/train.tsv", f"data.train = {toy_dir}/test.tsv"),
            encoding="utf-8",
        )
        vocab = tmp_path / "run" / "vocab.txt"
        assert main(["train", "--config", str(first)]) == 0
        old = vocab.read_bytes()
        replace = os.replace

        def failing_checkpoint_rename(src, dst):
            if str(dst).endswith("checkpoint.mtlc"):
                raise OSError(28, "No space left on device", dst)
            replace(src, dst)

        monkeypatch.setattr(checkpoint.os, "replace", failing_checkpoint_rename)
        assert main(["train", "--config", str(second)]) == 3
        monkeypatch.undo()
        new = vocab.read_bytes()
        assert new != old and len(new.splitlines()) == len(old.splitlines())
        capsys.readouterr()
        data = str(toy_dir / "val.tsv")
        stale = str(tmp_path / "run" / "checkpoint.mtlc")
        assert main(["evaluate", "--checkpoint", stale, "--data", data]) == 3
        err = capsys.readouterr().err
        assert repr(str(vocab)) in err and repr(stale) in err

    def test_failed_svd_names_the_coupled_layer_and_exits_4(
        self, toy_dir, fast_cfg, tmp_path, monkeypatch, capsys
    ):
        text = fast_cfg.read_text(encoding="utf-8")
        text = text.replace(
            "regime.kind = hard_share", "regime.kind = soft_share\nregime.penalty = trace_norm"
        ).replace(f"output.dir = {toy_dir}/run_fast", f"output.dir = {tmp_path}/run")
        cfg = tmp_path / "soft.cfg"
        cfg.write_text(text, encoding="utf-8")

        def failing_svd(a, full_matrices=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        assert main(["train", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "coupled layer 'layer0.wq'" in err and err.endswith(" at epoch 0 batch 0\n")

    def test_objective_overflow_exits_4_naming_its_step(self, toy_dir, fast_cfg, tmp_path, capsys):
        # each tower's weighted loss is finite at weight 1e308, but their sum is not
        cfg = self.run_cfg(
            toy_dir, fast_cfg, tmp_path,
            ("regime.kind = hard_share", "regime.kind = soft_share\nregime.task_weights = 1e308,1e308"),
            ("train.epochs = 2", "train.epochs = 1"),
        )
        assert main(["train", "--config", cfg]) == 4
        assert capsys.readouterr().err == "error: non-finite objective at epoch 0 batch 0\n"
        assert not (tmp_path / "run").exists()

    def test_hard_objective_overflow_names_no_task(self, toy_dir, fast_cfg, tmp_path, capsys):
        # both task losses are finite at weight 1e308, but their weighted sum is not
        cfg = self.run_cfg(
            toy_dir, fast_cfg, tmp_path,
            ("regime.kind = hard_share", "regime.kind = hard_share\nregime.task_weights = 1e308,1e308"),
            ("train.epochs = 2", "train.epochs = 1"),
        )
        assert main(["train", "--config", cfg]) == 4
        assert capsys.readouterr().err == "error: non-finite objective at epoch 0 batch 0\n"
        assert not (tmp_path / "run").exists()

    @staticmethod
    def run_cfg(toy_dir, fast_cfg, tmp_path, *edits) -> str:
        """fast.cfg writing to `tmp_path/run`, with each (old, new) line edit."""
        text = fast_cfg.read_text(encoding="utf-8")
        for old, new in ((f"output.dir = {toy_dir}/run_fast", f"output.dir = {tmp_path}/run"), *edits):
            assert old in text, old
            text = text.replace(old, new)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        return str(cfg)

    @pytest.mark.parametrize(
        "edits",
        [
            [("regime.kind = hard_share", "regime.kind = stl")],
            [],
            [SOFT_TRACE_NORM],
            [("regime.kind = hard_share", "regime.kind = soft_share\nregime.penalty = frobenius")],
            [("regime.loss = CE", "regime.loss = FL\nregime.loss_offense = KLD\nregime.class_weights = true")],
            [("regime.loss = CE", "regime.loss = HL\nregime.class_weights = true")],
            [("regime.loss = CE", "regime.loss = KLD\nregime.kld_epsilon = 0")],
        ],
        ids=["stl", "hard", "soft trace norm", "soft frobenius", "fl kld weighted", "hl weighted",
             "kld epsilon 0"],
    )
    def test_last_trace_row_holds_the_reports_weighted_f1(
        self, toy_dir, fast_cfg, tmp_path, edits
    ):
        # and `mtlc evaluate` on the validation split writes that report's bytes
        run = tmp_path / "run"
        assert main(["train", "--config", self.run_cfg(toy_dir, fast_cfg, tmp_path, *edits)]) == 0
        header, *rows = (run / "trace.tsv").read_text(encoding="utf-8").splitlines()
        last = dict(zip(header.split("\t"), rows[-1].split("\t")))
        report = json.loads((run / "report.json").read_text(encoding="utf-8"))
        stl = ("regime.kind = hard_share", "regime.kind = stl") in edits
        assert set(report["tasks"]) == ({"sentiment"} if stl else {"sentiment", "offense"})
        for task, scores in report["tasks"].items():
            assert round(float(last[f"{task}_val_f1"]), 5) == scores["weighted"]["f1"], task
        val = ["--data", str(toy_dir / "val.tsv"), "--out-dir", str(tmp_path / "val")]
        assert main(["evaluate", "--checkpoint", str(run / "checkpoint.mtlc"), *val]) == 0
        for ext in ("json", "txt"):
            evaluated = (tmp_path / "val" / f"eval_report.{ext}").read_bytes()
            assert evaluated == (run / f"report.{ext}").read_bytes(), ext

    def test_reports_without_reading_back_what_it_wrote(
        self, toy_dir, fast_cfg, tmp_path, monkeypatch
    ):
        import mtlc.cli as cli
        import mtlc.mtl as mtl

        def no_reads(*args, **kwargs):
            raise AssertionError("mtlc train read back a file it wrote")

        monkeypatch.setattr(cli, "load_checkpoint", no_reads)
        monkeypatch.setattr(cli, "parse_vocab", no_reads)
        calls, predict = [], mtl._predict

        def counted(model, seqs):
            calls.append(len(seqs))
            return predict(model, seqs)

        monkeypatch.setattr(mtl, "_predict", counted)
        assert main(["train", "--config", self.run_cfg(toy_dir, fast_cfg, tmp_path)]) == 0
        n_val = len((toy_dir / "val.tsv").read_text(encoding="utf-8").splitlines())
        assert calls == [n_val, n_val]  # once per epoch, on the validation split
        report = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))
        assert set(report["tasks"]) == {"sentiment", "offense"}

    def test_weight_past_float32_range_exits_4_before_any_artifact(
        self, toy_dir, fast_cfg, tmp_path, monkeypatch, capsys
    ):
        import mtlc.mtl as mtl

        step = mtl.adamw_step

        def diverging_step(params, states, hyper):
            step(params, states, hyper)
            params["head.offense.b_out"].data[0] = 1e39  # finite in float64 alone

        monkeypatch.setattr(mtl, "adamw_step", diverging_step)
        assert main(["train", "--config", self.run_cfg(toy_dir, fast_cfg, tmp_path)]) == 4
        assert "tensor 'head.offense.b_out'" in capsys.readouterr().err
        for name in ARTIFACTS:
            assert not (tmp_path / "run" / name).exists(), name

    def test_diverging_run_exits_4_without_a_numpy_warning(self, toy_dir, fast_cfg, tmp_path):
        # train.lr = 1e37 is finite and accepted; its first steps overflow
        # float64, which the loss check names, under warnings as errors
        import subprocess
        import sys
        from pathlib import Path

        import mtlc

        cfg = self.run_cfg(toy_dir, fast_cfg, tmp_path, ("train.lr = 0.003", "train.lr = 1e37"))
        src = str(Path(mtlc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "mtlc.cli", "train", "--config", cfg],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 4, done.stderr
        assert re.fullmatch(r"error: non-finite \S+ loss at epoch \d+ batch \d+\n", done.stderr)
        assert not (tmp_path / "run").exists()

    def test_stdout_lists_validation_f1_in_task_order(self, toy_dir, fast_cfg, tmp_path, capsys):
        # the report sorts its tasks; stdout follows the config's task order
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            fast_cfg.read_text(encoding="utf-8")
            .replace(f"output.dir = {toy_dir}/run_fast", f"output.dir = {tmp_path}/run")
            .replace("train.epochs = 2", "train.epochs = 1"),
            encoding="utf-8",
        )
        assert main(["train", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))
        assert capsys.readouterr().out.splitlines() == [
            f"{task} validation weighted F1 = {report['tasks'][task]['weighted']['f1']:.5f}"
            for task in ("sentiment", "offense")
        ]

    def test_config_with_a_bom_trains(self, toy_dir, fast_cfg, tmp_path):
        text = (
            fast_cfg.read_text(encoding="utf-8")
            .replace(f"output.dir = {toy_dir}/run_fast", f"output.dir = {tmp_path}/run")
            .replace("train.epochs = 2", "train.epochs = 1")
        )
        cfg = tmp_path / "bom.cfg"
        cfg.write_text("\ufeff" + text, encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "checkpoint.mtlc").exists()

    @pytest.mark.parametrize("name", ["missing.cfg", "a_directory"])
    def test_unreadable_config_path_exits_2_naming_it(self, tmp_path, capsys, name):
        (tmp_path / "a_directory").mkdir()
        assert main(["train", "--config", str(tmp_path / name)]) == 2
        assert str(tmp_path / name) in capsys.readouterr().err

    def test_invalid_config_exits_2_without_outputs(self, toy_dir, fast_cfg, tmp_path, capsys):
        text = fast_cfg.read_text(encoding="utf-8").replace(
            "train.batch_size = 16", "train.batch_size = 13"
        )
        text = text.replace(f"output.dir = {toy_dir}/run_fast", f"output.dir = {tmp_path}/never")
        bad = tmp_path / "bad.cfg"
        bad.write_text(text, encoding="utf-8")
        assert main(["train", "--config", str(bad)]) == 2
        assert "batch_size" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "text.min_freq = 0",
            "text.max_size = 0",
            "regime.task_weights = 1,1,1",  # three weights for hard sharing's two tasks
            "regime.task_weights = 0,0",  # no task loss to minimize
            "regime.coupled_layers = ,",  # names no parameter, in any regime
            "regime.class_weights = maybe",
        ],
    )
    def test_bad_value_exits_2_naming_its_key(self, toy_dir, fast_cfg, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        text = fast_cfg.read_text(encoding="utf-8")
        text = re.sub(rf"^{re.escape(key)} = .*\n", "", text, flags=re.M)
        text = text.replace(f"output.dir = {toy_dir}/run_fast", f"output.dir = {tmp_path}/never")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + line + "\n", encoding="utf-8")
        assert "regime.kind = hard_share" in text and "regime.task_weights" not in text
        assert main(["train", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @staticmethod
    def with_test_split(toy_dir, fast_cfg, tmp_path, test_tsv, out):
        """A copy of the fast config reading `test_tsv`, writing to `out`."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            fast_cfg.read_text(encoding="utf-8")
            .replace(f"data.test = {toy_dir}/test.tsv", f"data.test = {test_tsv}")
            .replace(f"output.dir = {toy_dir}/run_fast", f"output.dir = {out}"),
            encoding="utf-8",
        )
        assert f"data.test = {test_tsv}" in cfg.read_text(encoding="utf-8")
        return cfg

    def test_test_split_is_never_parsed(self, toy_dir, fast_cfg, tmp_path):
        test_tsv = tmp_path / "test.tsv"
        test_tsv.write_bytes((toy_dir / "test.tsv").read_bytes())
        cfg = self.with_test_split(toy_dir, fast_cfg, tmp_path, test_tsv, tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 0
        good = {name: (tmp_path / "run" / name).read_bytes() for name in ARTIFACTS}
        test_tsv.write_text("broken\tHappy\tNot offensive\nno tabs here\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 0
        for name in ARTIFACTS:
            assert (tmp_path / "run" / name).read_bytes() == good[name], name

    def test_missing_test_split_exits_2(self, toy_dir, fast_cfg, tmp_path, capsys):
        gone = tmp_path / "gone.tsv"
        cfg = self.with_test_split(toy_dir, fast_cfg, tmp_path, gone, tmp_path / "never")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "data.test" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_test_split_directory_exits_2(self, toy_dir, fast_cfg, tmp_path, capsys):
        folder = tmp_path / "test_dir"
        folder.mkdir()
        cfg = self.with_test_split(toy_dir, fast_cfg, tmp_path, folder, tmp_path / "never")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "data.test" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/run"])
    def test_output_dir_on_a_file_exits_2_before_training(
        self, toy_dir, fast_cfg, tmp_path, monkeypatch, capsys, out
    ):
        import mtlc.cli as cli

        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
        cfg = self.with_test_split(toy_dir, fast_cfg, tmp_path, toy_dir / "test.tsv", tmp_path / out)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "output.dir" in err and str(tmp_path / out) in err
        assert trained == []

    def test_output_dir_with_a_nul_byte_exits_2_before_training(
        self, toy_dir, fast_cfg, tmp_path, monkeypatch, capsys
    ):
        import mtlc.cli as cli

        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
        cfg = self.with_test_split(toy_dir, fast_cfg, tmp_path, toy_dir / "test.tsv", f"{tmp_path}/ru\0n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "output.dir" in capsys.readouterr().err
        assert trained == []
        assert os.listdir(tmp_path) == ["run.cfg"]

    @staticmethod
    def train_before_reading(tmp_path, monkeypatch, capsys, given) -> str:
        """The stderr of `mtlc train`, run in `tmp_path`, on a config of the
        `given` keys. It must exit 2 before it reads a TSV, and make nothing."""
        import mtlc.cli as cli

        monkeypatch.setattr(cli, "load_joint_tsv", unread)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(
            "".join(f"{key} = {value}\n" for key, value in given.items()), encoding="utf-8"
        )
        assert main(["train", "--config", "run.cfg"]) == 2
        assert os.listdir(tmp_path) == ["run.cfg"]
        return capsys.readouterr().err

    def test_missing_path_rejected(self, toy_dir, tmp_path, monkeypatch, capsys):
        given = {"data.train": toy_dir / "train.tsv"}
        assert re.search("data.val", self.train_before_reading(tmp_path, monkeypatch, capsys, given))

    def test_nonexistent_path_named(self, toy_dir, tmp_path, monkeypatch, capsys):
        given = {"data.train": "/nope.tsv", "data.val": toy_dir / "val.tsv"}
        assert re.search("data.train", self.train_before_reading(tmp_path, monkeypatch, capsys, given))

    @pytest.mark.parametrize("key", ["data.train", "data.val", "data.test"])
    def test_directory_path_named(self, toy_dir, tmp_path, monkeypatch, capsys, key):
        given = {"data.train": toy_dir / "train.tsv", "data.val": toy_dir / "val.tsv", key: tmp_path}
        err = self.train_before_reading(tmp_path, monkeypatch, capsys, given)
        assert re.search(f"{key}: path .* is not a file", err)

    def test_empty_output_dir_exits_2_naming_it(self, toy_dir, tmp_path, monkeypatch, capsys):
        given = {f"data.{split}": toy_dir / f"{split}.tsv" for split in ("train", "val", "test")}
        given["output.dir"] = ""
        err = self.train_before_reading(tmp_path, monkeypatch, capsys, given)
        assert "output.dir" in err

    def test_a_bad_value_is_named_before_a_bad_path(self, toy_dir, tmp_path, monkeypatch, capsys):
        # parsing reads no file, so the value's key comes first
        given = {"data.train": "/nope.tsv", "data.val": toy_dir / "val.tsv", "train.batch_size": 13}
        err = self.train_before_reading(tmp_path, monkeypatch, capsys, given)
        assert "train.batch_size" in err and "data.train" not in err

    def test_seed_variable_does_not_reach_a_run(self, toy_dir, fast_cfg, tmp_path, monkeypatch):
        # the seed is `train.seed`: nothing in the environment changes a run
        cfg = self.run_cfg(toy_dir, fast_cfg, tmp_path, ("train.epochs = 2", "train.epochs = 1"))
        assert main(["train", "--config", cfg]) == 0
        plain = {name: (tmp_path / "run" / name).read_bytes() for name in ARTIFACTS}
        monkeypatch.setenv("MTLC_SEED", "9")
        assert main(["train", "--config", cfg]) == 0
        for name, blob in plain.items():
            assert (tmp_path / "run" / name).read_bytes() == blob, name

    def test_seed_flag_is_a_usage_error(self, toy_dir, fast_cfg, tmp_path, capsys):
        cfg = self.run_cfg(toy_dir, fast_cfg, tmp_path)
        with pytest.raises(SystemExit) as stop:
            main(["train", "--config", cfg, "--seed", "3"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_string_hash_seed_does_not_reach_a_run(self, toy_dir, fast_cfg, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        import mtlc

        cfg = self.run_cfg(toy_dir, fast_cfg, tmp_path)
        src = str(Path(mtlc.__file__).resolve().parents[1])
        runs = {}
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            subprocess.run(
                [sys.executable, "-m", "mtlc.cli", "train", "--config", cfg],
                env=env, check=True, capture_output=True,
            )
            runs[hash_seed] = {name: (tmp_path / "run" / name).read_bytes() for name in ARTIFACTS}
        for name, blob in runs["1"].items():
            assert runs["2"][name] == blob, name


class TestOneWriter:
    def test_every_file_is_renamed_into_place_whole(self, tmp_path, monkeypatch):
        # README § Quick start: every file mtlc writes goes to <name>.tmp and
        # is renamed into place; a file written any other way is not renamed
        import os
        from pathlib import Path

        import mtlc.checkpoint as checkpoint

        renamed = []
        replace = os.replace

        def recording_replace(src, dst):
            renamed.append((src, dst))
            replace(src, dst)

        monkeypatch.setattr(checkpoint.os, "replace", recording_replace)
        toy = tmp_path / "toy"
        configs = materialize(str(toy))
        cfg = tmp_path / "fast.cfg"  # written by the test, outside the checked tree
        text = (
            Path(configs["toy"]).read_text(encoding="utf-8")
            .replace("train.epochs = 30", "train.epochs = 1")
            .replace(f"output.dir = {toy}/run_toy", f"output.dir = {toy}/run")
        )
        cfg.write_text(text, encoding="utf-8")
        run = toy / "run"
        for argv in (
            ["split", "--input", str(toy / "toy.tsv"), "--out-dir", str(toy / "resplit")],
            ["train", "--config", str(cfg)],
            ["evaluate", "--checkpoint", str(run / "checkpoint.mtlc"), "--data", str(toy / "test.tsv"),
             "--out-dir", str(toy / "eval")],
            ["report", "--runs", str(run), "--out", str(toy / "cmp.tsv")],
        ):
            assert main(argv) == 0, argv
        written = {str(path) for path in toy.rglob("*") if path.is_file()}
        assert written == {dst for _, dst in renamed}
        assert all(src == dst + ".tmp" for src, dst in renamed)
        assert {"vocab.txt", "eval_report.json", "cmp.tsv", "manifest.txt", "toy.cfg"} <= {
            os.path.basename(path) for path in written
        }


class TestEvaluate:
    def test_round_trip_reproduces_validation_report(self, toy_dir, trained_run, capsys):
        code = main(
            [
                "evaluate",
                "--checkpoint", str(trained_run / "checkpoint.mtlc"),
                "--data", str(toy_dir / "val.tsv"),
            ]
        )
        assert code == 0
        baseline = (trained_run / "report.json").read_bytes()
        evaluated = (trained_run / "eval_report.json").read_bytes()
        assert baseline == evaluated

    def test_stdout_lists_weighted_f1_in_task_order(self, toy_dir, trained_run, tmp_path, capsys):
        checkpoint = str(trained_run / "checkpoint.mtlc")
        data = str(toy_dir / "test.tsv")
        out = str(tmp_path)
        assert main(["evaluate", "--checkpoint", checkpoint, "--data", data, "--out-dir", out]) == 0
        report = json.loads((tmp_path / "eval_report.json").read_text(encoding="utf-8"))
        assert capsys.readouterr().out.splitlines() == [
            f"{task} weighted F1 = {report['tasks'][task]['weighted']['f1']:.5f}"
            for task in ("sentiment", "offense")
        ]

    @pytest.mark.parametrize("out", ["afile", "afile/x"])
    def test_out_dir_on_a_file_exits_2_before_evaluating(
        self, toy_dir, trained_run, tmp_path, monkeypatch, capsys, out
    ):
        import mtlc.cli as cli

        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        evaluated = []
        monkeypatch.setattr(cli, "evaluate", lambda *args: evaluated.append(args))
        args = ["--checkpoint", str(trained_run / "checkpoint.mtlc"), "--data", str(toy_dir / "val.tsv")]
        assert main(["evaluate", *args, "--out-dir", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert "--out-dir" in err and str(tmp_path / out) in err
        assert evaluated == []
        assert (tmp_path / "afile").read_text(encoding="utf-8") == "not a directory\n"

    @staticmethod
    def evaluate_unread(trained_run, toy_dir, monkeypatch, capsys, *flags) -> str:
        """The stderr of `mtlc evaluate` with `flags`, which must exit 2
        before it reads the checkpoint."""
        import mtlc.cli as cli

        monkeypatch.setattr(cli, "load_checkpoint", unread)
        args = ["--checkpoint", str(trained_run / "checkpoint.mtlc"), "--data", str(toy_dir / "val.tsv")]
        assert main(["evaluate", *args, *flags]) == 2
        return capsys.readouterr().err

    def test_empty_out_dir_exits_2_before_reading_the_checkpoint(
        self, trained_run, toy_dir, monkeypatch, capsys
    ):
        # an absent --out-dir writes beside the checkpoint; an empty one is an error
        err = self.evaluate_unread(trained_run, toy_dir, monkeypatch, capsys, "--out-dir", "")
        assert "--out-dir" in err

    def test_empty_vocab_exits_2_before_reading_the_checkpoint(
        self, trained_run, toy_dir, monkeypatch, capsys
    ):
        # an absent --vocab reads the one beside the checkpoint; an empty one is an error
        err = self.evaluate_unread(trained_run, toy_dir, monkeypatch, capsys, "--vocab", "")
        assert "--vocab" in err

    def test_corrupt_checkpoint_exits_5(self, trained_run, tmp_path, toy_dir, capsys):
        blob = bytearray((trained_run / "checkpoint.mtlc").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.mtlc"
        bad.write_bytes(bytes(blob))
        import shutil

        shutil.copy(trained_run / "vocab.txt", tmp_path / "vocab.txt")
        code = main(["evaluate", "--checkpoint", str(bad), "--data", str(toy_dir / "val.tsv")])
        assert code == 5
        assert capsys.readouterr().err.startswith(f"error: {bad}: checkpoint CRC mismatch")

    def test_config_block_not_utf8_exits_5(self, trained_run, tmp_path, toy_dir):
        import shutil
        import struct
        import zlib

        body = bytearray((trained_run / "checkpoint.mtlc").read_bytes()[:-4])
        body[10] = 0xFF  # first byte of the config block; the CRC stays valid
        bad = tmp_path / "bad.mtlc"
        bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        shutil.copy(trained_run / "vocab.txt", tmp_path / "vocab.txt")
        code = main(["evaluate", "--checkpoint", str(bad), "--data", str(toy_dir / "val.tsv")])
        assert code == 5

    def test_nan_weights_with_valid_crc_exit_5(self, trained_run, tmp_path, toy_dir):
        import shutil
        import struct
        import zlib

        import numpy as np

        from mtlc.checkpoint import load_checkpoint, serialize
        from mtlc.numcore import Tensor

        # save a marker value in pooler_w, then overwrite its bytes with NaN
        config_text, digest, arrays = load_checkpoint(str(trained_run / "checkpoint.mtlc"))
        arrays["pooler_w"] = np.full(arrays["pooler_w"].shape, 3.0)
        body = serialize(config_text, digest, {name: Tensor(a) for name, a in arrays.items()})[:-4]
        marker = struct.pack("<f", 3.0) * arrays["pooler_w"].size
        assert body.count(marker) == 1
        body = body.replace(marker, struct.pack("<f", float("nan")) * arrays["pooler_w"].size)
        bad = tmp_path / "bad.mtlc"
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        shutil.copy(trained_run / "vocab.txt", tmp_path / "vocab.txt")
        code = main(["evaluate", "--checkpoint", str(bad), "--data", str(toy_dir / "val.tsv")])
        assert code == 5
        assert not (tmp_path / "eval_report.json").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "regime.penalty = bogus",
            "regime.task = bogus",
            "regime.lambda = nan",
            "regime.coupled_layers = layer9.wq",
            "model.dropout = 7",
        ],
    )
    def test_embedded_config_with_an_unused_bad_value_exits_2(
        self, trained_run, tmp_path, toy_dir, line, capsys
    ):
        import shutil

        from mtlc.checkpoint import load_checkpoint, save_checkpoint
        from mtlc.numcore import Tensor

        config_text, digest, arrays = load_checkpoint(str(trained_run / "checkpoint.mtlc"))
        key = line.partition(" =")[0]
        lines = [line if row.startswith(key + " =") else row for row in config_text.splitlines()]
        assert line in lines
        bad = tmp_path / "bad.mtlc"
        params = {name: Tensor(a) for name, a in arrays.items()}
        save_checkpoint(str(bad), "\n".join(lines) + "\n", digest, params)
        shutil.copy(trained_run / "vocab.txt", tmp_path / "vocab.txt")
        capsys.readouterr()
        code = main(["evaluate", "--checkpoint", str(bad), "--data", str(toy_dir / "val.tsv")])
        assert code == 2
        assert not (tmp_path / "eval_report.json").exists()
        err = capsys.readouterr().err
        assert f"checkpoint {str(bad)!r}: embedded config: {key}" in err

    def test_missing_vocab_exits_2(self, trained_run, toy_dir, tmp_path):
        import shutil

        lonely = tmp_path / "lonely.mtlc"
        shutil.copy(trained_run / "checkpoint.mtlc", lonely)
        code = main(["evaluate", "--checkpoint", str(lonely), "--data", str(toy_dir / "val.tsv")])
        assert code == 2


    def test_another_runs_vocab_exits_3_naming_both_files(self, trained_run, toy_dir, tmp_path, capsys):
        foreign = tmp_path / "vocab.txt"
        foreign.write_text(
            (trained_run / "vocab.txt").read_text(encoding="utf-8") + "zzunseenword\n",
            encoding="utf-8",
        )
        checkpoint = str(trained_run / "checkpoint.mtlc")
        args = ["--checkpoint", checkpoint, "--vocab", str(foreign)]
        args += ["--data", str(toy_dir / "val.tsv"), "--out-dir", str(tmp_path / "out")]
        assert main(["evaluate", *args]) == 3
        err = capsys.readouterr().err
        assert repr(str(foreign)) in err and repr(checkpoint) in err
        assert not (tmp_path / "out").exists()

    def test_swapped_tokens_exit_3_naming_both_files(self, trained_run, toy_dir, tmp_path, capsys):
        # the same tokens, two of them in each other's rows: the same size
        lines = (trained_run / "vocab.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2], lines[3] = lines[3], lines[2]
        swapped = tmp_path / "vocab.txt"
        swapped.write_text("".join(lines), encoding="utf-8")
        checkpoint = str(trained_run / "checkpoint.mtlc")
        args = ["--checkpoint", checkpoint, "--vocab", str(swapped)]
        args += ["--data", str(toy_dir / "val.tsv"), "--out-dir", str(tmp_path / "out")]
        assert main(["evaluate", *args]) == 3
        err = capsys.readouterr().err
        assert repr(str(swapped)) in err and repr(checkpoint) in err
        assert not (tmp_path / "out").exists()

    def test_opens_the_vocabulary_once_and_parses_the_bytes_it_checked(
        self, trained_run, toy_dir, tmp_path, monkeypatch
    ):
        import builtins
        import hashlib

        import mtlc.cli as cli
        from mtlc.checkpoint import load_checkpoint

        checkpoint = str(trained_run / "checkpoint.mtlc")
        vocab = str(trained_run / "vocab.txt")
        opened, parsed = [], []
        real_open, real_parse = builtins.open, cli.parse_vocab

        def counting_open(file, *args, **kwargs):
            if os.fspath(file) == vocab:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        def recording_parse(data, path):
            parsed.append(data)
            return real_parse(data, path)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(cli, "parse_vocab", recording_parse)
        args = ["--checkpoint", checkpoint, "--data", str(toy_dir / "val.tsv")]
        assert main(["evaluate", *args, "--out-dir", str(tmp_path / "out")]) == 0
        assert len(opened) == 1
        _, digest, _ = load_checkpoint(checkpoint)
        assert [hashlib.sha256(data).digest() for data in parsed] == [digest]

    def test_version_1_checkpoint_exits_5(self, trained_run, toy_dir, tmp_path, capsys):
        import shutil
        import struct
        import zlib

        from mtlc.checkpoint import DIGEST_SIZE

        # the same file as format version 1 wrote it: no digest after the config
        body = (trained_run / "checkpoint.mtlc").read_bytes()[:-4]
        cut = 10 + int.from_bytes(body[6:10], "little")
        v1 = body[:4] + struct.pack("<H", 1) + body[6:cut] + body[cut + DIGEST_SIZE :]
        old = tmp_path / "old.mtlc"
        old.write_bytes(v1 + struct.pack("<I", zlib.crc32(v1)))
        shutil.copy(trained_run / "vocab.txt", tmp_path / "vocab.txt")
        assert main(["evaluate", "--checkpoint", str(old), "--data", str(toy_dir / "val.tsv")]) == 5
        assert "format version 1" in capsys.readouterr().err
        assert not (tmp_path / "eval_report.json").exists()

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda arrays: arrays.pop("head.offense.b_out"), "'head.offense.b_out' is None"),
            (lambda arrays: arrays.update(stray=np.zeros(3)), "'stray' is (3,), expected None"),
            (lambda arrays: arrays.update(pooler_b=np.zeros(5)), "'pooler_b' is (5,), expected (16,)"),
        ],
        ids=["missing tensor", "extra tensor", "wrong shape"],
    )
    def test_tensors_that_disagree_with_the_config_exit_5_naming_them(
        self, trained_run, toy_dir, tmp_path, capsys, edit, named
    ):
        import shutil

        from mtlc.checkpoint import load_checkpoint, save_checkpoint
        from mtlc.numcore import Tensor

        # a sound file (its CRC holds) whose tensor table the config does not imply
        config_text, digest, arrays = load_checkpoint(str(trained_run / "checkpoint.mtlc"))
        edit(arrays)
        bad = tmp_path / "bad.mtlc"
        params = {name: Tensor(a) for name, a in arrays.items()}
        save_checkpoint(str(bad), config_text, digest, params)
        shutil.copy(trained_run / "vocab.txt", tmp_path / "vocab.txt")
        code = main(["evaluate", "--checkpoint", str(bad), "--data", str(toy_dir / "val.tsv")])
        assert code == 5
        assert named in capsys.readouterr().err
        assert not (tmp_path / "eval_report.json").exists()

    def test_vocab_directory_exits_2(self, trained_run, toy_dir, tmp_path, capsys):
        args = ["--checkpoint", str(trained_run / "checkpoint.mtlc"), "--vocab", str(tmp_path)]
        args += ["--data", str(toy_dir / "val.tsv"), "--out-dir", str(tmp_path / "out")]
        assert main(["evaluate", *args]) == 2
        assert "--vocab" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestInputFiles:
    """Each input path a command is given is checked before any file is
    read: one that is missing or not a file exits 2, naming its flag."""

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize(
        "flag", ["--checkpoint", "--data", "--vocab", "--input", "--sentiment-input", "--offense-input"]
    )
    def test_exits_2_naming_its_flag(self, trained_run, toy_dir, tmp_path, monkeypatch, capsys, flag, kind):
        import mtlc.cli as cli

        for reader in ("load_checkpoint", "load_joint_tsv", "merge_task_files"):
            monkeypatch.setattr(cli, reader, unread)
        bad = str(tmp_path / "nope" if kind == "missing" else tmp_path)
        checkpoint, data = str(trained_run / "checkpoint.mtlc"), str(toy_dir / "val.tsv")
        toy = str(toy_dir / "toy.tsv")
        argv = {
            # a missing checkpoint's default --vocab, the one beside it, is missing too
            "--checkpoint": ["evaluate", "--checkpoint", bad, "--data", data],
            "--data": ["evaluate", "--checkpoint", checkpoint, "--data", bad],
            "--vocab": ["evaluate", "--checkpoint", checkpoint, "--data", data, "--vocab", bad],
            "--input": ["split", "--input", bad],
            "--sentiment-input": ["split", "--sentiment-input", bad, "--offense-input", toy],
            "--offense-input": ["split", "--sentiment-input", toy, "--offense-input", bad],
        }[flag]
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        assert f"{flag}: path {bad!r} is not a file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPredictionPrecision:
    """A checkpoint-loaded model computes in the float32 its checkpoint
    stores; a model `build_model` makes computes in float64."""

    @pytest.fixture(scope="class", params=["hard_share", "soft_share"])
    def run(self, request, toy_dir, fast_cfg):
        """(regime kind, trained run directory)"""
        kind, out = request.param, toy_dir / f"run_fast_{request.param}"
        text = fast_cfg.read_text(encoding="utf-8")
        text = text.replace("regime.kind = hard_share", f"regime.kind = {kind}")
        text = text.replace(f"output.dir = {toy_dir}/run_fast", f"output.dir = {out}")
        cfg = toy_dir / f"fast_{kind}.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 0
        return kind, out

    @staticmethod
    def created_dtypes(monkeypatch, model, seqs) -> set:
        """The dtype of every Tensor made while `model` predicts `seqs`: an
        op whose own buffer (an `out=` array, a cached constant) is float64
        upcasts its output, and the Tensor wrapping it shows that."""
        from mtlc.mtl import predict_logits
        from mtlc.numcore import Tensor

        made, init = [], Tensor.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self.data.dtype)

        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "__init__", recording)
            predict_logits(model, seqs)
        assert made
        return set(made)

    def test_a_loaded_model_makes_only_float32_tensors(self, run, toy_dir, monkeypatch):
        from mtlc import cli
        from mtlc.data import encode_texts, load_joint_tsv
        from mtlc.mtl import build_model

        kind, out = run
        model, cfg, vocab = cli._model_from_checkpoint(
            str(out / "checkpoint.mtlc"), str(out / "vocab.txt")
        )
        assert (model.regime.soft is not None) == (kind == "soft_share")
        schemas = schemas_for_language(cfg.language)
        val = load_joint_tsv(str(toy_dir / "val.tsv"), schemas, cfg.language)
        seqs = encode_texts(val, vocab, model.encoder_cfg.max_len)
        assert self.created_dtypes(monkeypatch, model, seqs) == {np.dtype(np.float32)}
        n_classes = {task: head["b_out"].shape[0] for task, (_, head) in model.heads.items()}
        built = build_model(model.regime, model.encoder_cfg, n_classes, seed=0)
        assert self.created_dtypes(monkeypatch, built, seqs) == {np.dtype(np.float64)}

    def test_training_validates_on_float32_tensors(self, run, toy_dir, monkeypatch):
        """Each epoch's validation predicts on the weights as the checkpoint
        stores them, so every Tensor it makes is float32; the trained
        model's own weights stay float64."""
        import mtlc.mtl as mtl
        from mtlc.numcore import Tensor

        kind, _ = run
        made, weights, trained = [], [], []
        init, predict, stored = Tensor.__init__, mtl._predict, mtl.stored_values

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self.data.dtype)

        def validation(model, seqs):
            weights.extend(p.data.dtype for p in model.params.values())
            with monkeypatch.context() as patch:
                patch.setattr(Tensor, "__init__", recording)
                return predict(model, seqs)

        def storing(params):
            trained.extend(p.data.dtype for p in params.values())
            return stored(params)

        monkeypatch.setattr(mtl, "_predict", validation)
        monkeypatch.setattr(mtl, "stored_values", storing)
        assert main(["train", "--config", str(toy_dir / f"fast_{kind}.cfg")]) == 0
        assert made and set(made) == set(weights) == {np.dtype(np.float32)}
        assert set(trained) == {np.dtype(np.float64)}


class TestReport:
    def test_single_run_table(self, trained_run, capsys):
        assert main(["report", "--runs", str(trained_run)]) == 0
        out = capsys.readouterr().out
        assert "Weighted average" in out
        assert "run_fast" in out

    def test_two_run_deltas_and_tsv_round_trip(self, toy_dir, trained_run, tmp_path, capsys):
        second_cfg = toy_dir / "fast2.cfg"
        second_cfg.write_text(
            (toy_dir / "fast.cfg")
            .read_text(encoding="utf-8")
            .replace(f"output.dir = {toy_dir}/run_fast", f"output.dir = {toy_dir}/run_fast2")
            .replace("train.seed = 1", "train.seed = 2"),
            encoding="utf-8",
        )
        assert main(["train", "--config", str(second_cfg)]) == 0
        capsys.readouterr()
        tsv_path = tmp_path / "cmp.tsv"
        code = main(
            ["report", "--runs", f"{trained_run},{toy_dir}/run_fast2", "--out", str(tsv_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delta" in out
        rows = tsv_path.read_text(encoding="utf-8").splitlines()
        header = rows[0].split("\t")
        assert header[:2] == ["task", "row"]
        assert len(header) == 4
        for row in rows[1:]:
            cells = row.split("\t")
            for value in cells[2:]:
                if value:
                    float(value)  # re-parses as numbers

    @pytest.mark.parametrize("out", ["", "cmp\0.tsv"], ids=["empty", "nul"])
    def test_empty_out_exits_2_before_reading_a_report(self, trained_run, monkeypatch, capsys, out):
        import mtlc.cli as cli

        monkeypatch.setattr(cli, "load_report", unread)
        assert main(["report", "--runs", str(trained_run), "--out", out]) == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["directory", "trailing_separator", "under_a_file"])
    def test_out_that_cannot_be_a_file_exits_2_before_reading_a_report(
        self, trained_run, tmp_path, monkeypatch, capsys, where
    ):
        import mtlc.cli as cli

        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        out = {
            "directory": str(tmp_path),
            "trailing_separator": str(tmp_path / "new") + os.sep,
            "under_a_file": str(tmp_path / "afile" / "cmp.tsv"),
        }[where]
        monkeypatch.setattr(cli, "load_report", unread)
        assert main(["report", "--runs", str(trained_run), "--out", out]) == 2
        assert "--out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    def test_out_under_a_missing_directory_makes_it(self, trained_run, tmp_path):
        out = tmp_path / "nodir" / "deeper" / "cmp.tsv"
        assert main(["report", "--runs", str(trained_run), "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert rows[0].split("\t") == ["task", "row", trained_run.name]
        assert len(rows) > 1

    def test_runs_without_a_directory_exit_2(self, capsys):
        assert main(["report", "--runs", ","]) == 2
        assert "--runs" in capsys.readouterr().err

    def test_missing_report_named(self, tmp_path, capsys):
        code = main(["report", "--runs", str(tmp_path / "ghost")])
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body",
        [
            '{"tasks": {',
            '{"runs": {}}',
            '{"tasks": {"sentiment": {}}}',
            '{"tasks": {"sentiment": []}}',
            '{"tasks": {"sentiment": {"labels": ["a"], "per_class": [{"label": "a"}],'
            ' "macro": {"f1": 0.5}, "weighted": {"f1": 0.5}}}}',
        ],
    )
    def test_corrupt_report_named_exits_5(self, tmp_path, capsys, body):
        run = tmp_path / "broken"
        run.mkdir()
        (run / "report.json").write_text(body, encoding="utf-8")
        assert main(["report", "--runs", str(run)]) == 5
        assert str(run / "report.json") in capsys.readouterr().err

    @pytest.mark.parametrize("order", [("ml", "kn"), ("kn", "ml")])
    def test_rows_are_the_union_of_the_runs_classes(self, tmp_path, capsys, order):
        """Malayalam's offense scheme lacks Kannada's 'Offensive targeted others'."""
        for name, language in (("ml", "malayalam"), ("kn", "kannada")):
            classes = {task: s.classes for task, s in schemas_for_language(language).items()}
            golds = {task: list(range(len(c))) for task, c in classes.items()}
            (tmp_path / name).mkdir()
            (tmp_path / name / "report.json").write_text(
                json.dumps(report_to_dict(build_report(golds, golds, classes))), encoding="utf-8"
            )
        tsv_path = tmp_path / "cmp.tsv"
        runs = ",".join(str(tmp_path / name) for name in order)
        assert main(["report", "--runs", runs, "--out", str(tsv_path)]) == 0
        lines = capsys.readouterr().out.splitlines()

        def cells(label):
            line = next(ln for ln in lines if ln.startswith(label))
            return line[len(label):].split()

        assert cells("Not offensive") == ["1.00000", "1.00000", "+0.00000"]
        kn_first = order[0] == "kn"
        assert cells("Offensive targeted others") == (
            ["1.00000", "-"] if kn_first else ["-", "1.00000"]
        )
        rows = [ln.split("\t") for ln in tsv_path.read_text(encoding="utf-8").splitlines()[1:]]
        assert [row[1] for row in rows if row[0] == "offense"][-3:] == (
            ["Other language", "Macro average", "Weighted average"]
            if kn_first
            else ["Offensive targeted others", "Macro average", "Weighted average"]
        )
        others = next(row for row in rows if row[1] == "Offensive targeted others")
        assert others[2:] == (["1.00000", ""] if kn_first else ["", "1.00000"])


class TestNonUtf8Input:
    """Each input file that is not UTF-8 text ends in an error naming it."""

    LATIN1_ROW = "caf\u00e9\tPositive\tNot offensive\n".encode("latin-1")

    def test_split_input_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "corpus.tsv"
        bad.write_bytes(self.LATIN1_ROW)
        assert main(["split", "--input", str(bad), "--out-dir", str(tmp_path / "o")]) == 3
        assert str(bad) in capsys.readouterr().err

    def test_train_config_exits_2(self, toy_dir, fast_cfg, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(fast_cfg.read_bytes() + "# caf\u00e9\n".encode("latin-1"))
        assert main(["train", "--config", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_train_data_exits_3(self, toy_dir, fast_cfg, tmp_path, capsys):
        bad = tmp_path / "train.tsv"
        bad.write_bytes((toy_dir / "train.tsv").read_bytes() + self.LATIN1_ROW)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            fast_cfg.read_text(encoding="utf-8")
            .replace(f"data.train = {toy_dir}/train.tsv", f"data.train = {bad}")
            .replace(f"output.dir = {toy_dir}/run_fast", f"output.dir = {tmp_path}/never"),
            encoding="utf-8",
        )
        assert main(["train", "--config", str(cfg)]) == 3
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    def test_evaluate_data_exits_3(self, trained_run, tmp_path, capsys):
        bad = tmp_path / "test.tsv"
        bad.write_bytes(self.LATIN1_ROW)
        checkpoint = str(trained_run / "checkpoint.mtlc")
        assert main(["evaluate", "--checkpoint", checkpoint, "--data", str(bad)]) == 3
        assert str(bad) in capsys.readouterr().err

    def test_evaluate_vocab_exits_3(self, toy_dir, trained_run, tmp_path, capsys):
        bad = tmp_path / "vocab.txt"
        bad.write_bytes((trained_run / "vocab.txt").read_bytes() + "\u00e9\n".encode("latin-1"))
        checkpoint = str(trained_run / "checkpoint.mtlc")
        data = str(toy_dir / "val.tsv")
        code = main(["evaluate", "--checkpoint", checkpoint, "--data", data, "--vocab", str(bad)])
        assert code == 3
        assert str(bad) in capsys.readouterr().err


class TestParser:
    def test_built_once_per_process(self, tmp_path):
        import mtlc.cli as cli

        cli.build_parser.cache_clear()
        for _ in range(2):
            main(["report", "--runs", str(tmp_path)])  # exits 2: no report.json
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_parse_errors_still_exit_2_with_usage(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                main(["evaluate", "--data", "x.tsv"])
            assert stop.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: mtlc evaluate") and "--checkpoint" in err


class TestHeapSetting:
    @pytest.fixture
    def mallopt_calls(self, monkeypatch):
        """Calls `cli.main` makes to mallopt, with the once-per-process cache cleared."""
        import mtlc.cli as cli

        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        cli._keep_heap_mapped.cache_clear()
        cli._pin_blas_thread()  # the fake library has no BLAS to pin: pin the real one first
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        yield calls
        cli._keep_heap_mapped.cache_clear()

    def test_set_once_per_process_on_glibc(self, mallopt_calls, monkeypatch, tmp_path):
        import mtlc.cli as cli

        monkeypatch.setattr(cli, "_is_glibc", lambda: True)
        for _ in range(3):
            main(["report", "--runs", str(tmp_path)])  # exits 2: no report.json
        assert mallopt_calls == [(-3, 32 << 20), (-1, 256 << 20)]

    def test_no_op_without_glibc(self, mallopt_calls, monkeypatch, tmp_path):
        import mtlc.cli as cli

        monkeypatch.setattr(cli, "_is_glibc", lambda: False)
        main(["report", "--runs", str(tmp_path)])
        assert mallopt_calls == []


class TestBlasThreads:
    @pytest.mark.parametrize(
        "changes",
        [
            {"train.epochs": "15"},
            {"regime.kind": "soft_share", "train.epochs": "6"},  # every op on [2, ...] tower stacks
        ],
        ids=["hard", "soft"],
    )
    def test_checkpoint_bits_do_not_depend_on_the_blas_thread_count(self, toy_dir, tmp_path, changes):
        # char mode at batch 64 packs about 1,600 rows. The first of 2 layers
        # runs self-attention, whose weight gradients sum over every row,
        # enough for OpenBLAS to split the sum over two threads; the toy's
        # one [CLS] layer sums over at most 64. The epochs are the fewest at
        # which a run with the pin removed stored other float32 weights at 1
        # and 2 threads, on a 2-vCPU x86-64 host (OpenBLAS 0.3.31, SkylakeX)
        import os
        import re
        import subprocess
        import sys
        from pathlib import Path

        import mtlc

        text = (toy_dir / "toy.cfg").read_text(encoding="utf-8")
        changes = {"text.mode": "char", "text.max_len": "32", "train.batch_size": "64",
                   "model.n_layers": "2", **changes, "output.dir": str(tmp_path / "run")}
        for key, value in changes.items():
            text, n = re.subn(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
            assert n == 1, key
        cfg = tmp_path / "char.cfg"
        cfg.write_text(text, encoding="utf-8")
        src = str(Path(mtlc.__file__).resolve().parents[1])
        runs = {}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            subprocess.run(
                [sys.executable, "-m", "mtlc.cli", "train", "--config", str(cfg)],
                env=env, check=True, capture_output=True,
            )
            runs[threads] = {
                name: (tmp_path / "run" / name).read_bytes()
                for name in ("checkpoint.mtlc", "trace.tsv", "report.json")
            }
        for name, blob in runs["1"].items():
            assert runs["2"][name] == blob, name

    def test_a_library_caller_keeps_its_thread_count(self, tmp_path):
        # README: `cli.main` pins one BLAS thread; a program that calls
        # mtlc's modules directly keeps its own count
        import os
        import subprocess
        import sys
        from pathlib import Path

        import mtlc

        script = """
import ctypes, glob, os, sys
import numpy
from mtlc import cli, config, mtl

home = os.path.dirname(numpy.__file__)
libs = glob.glob(os.path.join(home, os.pardir, "numpy.libs", "*openblas*"))
names = [name.replace("set", "get") for name in cli._BLAS_THREAD_SETTERS]
getters = [getattr(lib, name) for lib in map(ctypes.CDLL, sorted(libs)) for name in names
           if hasattr(lib, name)]
if not getters:
    print("no getter")
    sys.exit()
get = getters[0]
before = get()
cfg = config.load_config("")
mtl.build_model(cfg.regime, cfg.encoder, {"sentiment": 5, "offense": 6}, seed=0)
library = get()
cli.main(["report", "--runs", sys.argv[1]])  # exits 2: no report.json
print(before, library, get())
"""
        src = str(Path(mtlc.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, check=True, capture_output=True, text=True,
        ).stdout.split()
        if out == ["no", "getter"] or out[0] != "2":
            pytest.skip(f"no OpenBLAS running two threads in numpy's wheel: {out}")
        assert out == ["2", "2", "1"]

    def test_without_a_setter_says_so_once(self, monkeypatch, tmp_path, capsys):
        import mtlc.cli as cli

        cli._pin_blas_thread.cache_clear()
        monkeypatch.setattr(cli, "_BLAS_THREAD_SETTERS", ("no_such_setter",))
        for _ in range(2):
            main(["report", "--runs", str(tmp_path)])  # exits 2: no report.json
        err = capsys.readouterr().err
        cli._pin_blas_thread.cache_clear()
        assert err.count("BLAS threads unpinned") == 1


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    """The toy's files, a one-epoch config that names them and its output
    directory relative to this directory, and that config's trained run
    (`run/`)."""
    directory = tmp_path_factory.mktemp("contract")
    materialize(str(directory))
    text = (directory / "toy.cfg").read_text(encoding="utf-8")
    changes = {
        "data.train": "train.tsv", "data.val": "val.tsv", "data.test": "test.tsv",
        "output.dir": "run", "train.epochs": "1", "model.d_model": "8", "model.n_heads": "2",
        "model.d_ffn": "16",
    }
    for key, value in changes.items():
        text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
    (directory / "one_epoch.cfg").write_text(text, encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        assert main(["train", "--config", "one_epoch.cfg"]) == 0
    return directory


def _error_classes(cls=MtlcError):
    return [cls] + [sub for child in cls.__subclasses__() for sub in _error_classes(child)]


class TestExitCodes:
    # the process exit code of each error class, as the README states them
    STATED = {
        "MtlcError": 2, "ContractError": 2, "ShapeError": 2, "ConfigError": 2,
        "DataError": 3, "NumericalError": 4, "CorruptArtifactError": 5,
    }

    def test_every_error_class_is_stated(self):
        assert sorted(cls.__name__ for cls in _error_classes()) == sorted(self.STATED)

    @pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
    def test_a_command_exits_with_its_errors_code(self, cls, fast_cfg, monkeypatch, capsys):
        import mtlc.cli as cli

        def raising(*args, **kwargs):
            raise cls("raised inside the command")

        monkeypatch.setattr(cli, "load_config", raising)
        code = main(["train", "--config", str(fast_cfg)])
        assert code == cls.exit_code == self.STATED[cls.__name__]
        assert capsys.readouterr().err == "error: raised inside the command\n"


class TestExitCodeContract:
    """Mutated inputs keep the exit-code contract: a checkpoint cut short or
    with bytes inserted or deleted exits 5; a mutated vocabulary exits 3; a
    mutated TSV or config exits 0, 2 or 3; no exception escapes `main`.
    Every command runs in `contract_dir`, so a mutated `output.dir` writes
    under it."""

    @staticmethod
    def _main(directory, argv):
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(directory)
            return main(argv)

    def _evaluate(
        self, directory, checkpoint="run/checkpoint.mtlc", data="val.tsv", vocab="run/vocab.txt"
    ):
        argv = ["--checkpoint", checkpoint, "--data", data, "--vocab", vocab, "--out-dir", "eval"]
        return self._main(directory, ["evaluate", *argv])

    @staticmethod
    def _mutate(draw, blob: bytes, kinds=("flip", "insert", "delete")) -> bytes:
        kind = draw(st.sampled_from(kinds))
        if kind == "truncate":
            return blob[: draw(st.integers(0, len(blob) - 1))]
        at = draw(st.integers(0, len(blob) - 1))
        if kind == "flip":
            return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1 :]
        if kind == "insert":
            return blob[:at] + draw(st.binary(min_size=1, max_size=8)) + blob[at:]
        return blob[:at] + blob[at + draw(st.integers(1, 8)) :]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_a_cut_or_shifted_checkpoint_exits_5(self, contract_dir, data):
        blob = (contract_dir / "run" / "checkpoint.mtlc").read_bytes()
        bad = self._mutate(data.draw, blob, ("truncate", "insert", "delete"))
        (contract_dir / "bad.mtlc").write_bytes(bad)
        assert self._evaluate(contract_dir, checkpoint="bad.mtlc") == 5

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_a_mutated_tsv_exits_0_2_or_3(self, contract_dir, data):
        bad = self._mutate(data.draw, (contract_dir / "val.tsv").read_bytes())
        (contract_dir / "bad.tsv").write_bytes(bad)
        assert self._evaluate(contract_dir, data="bad.tsv") in (0, 2, 3)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_a_mutated_vocabulary_exits_3(self, contract_dir, data):
        # every mutation changes a byte, so the checkpoint's vocabulary
        # sha256 rejects the file
        bad = self._mutate(data.draw, (contract_dir / "run" / "vocab.txt").read_bytes())
        (contract_dir / "bad_vocab.txt").write_bytes(bad)
        assert self._evaluate(contract_dir, vocab="bad_vocab.txt") == 3

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_flipped_config_byte_exits_0_2_or_3(self, contract_dir, data):
        # one byte flipped, so a number moves by at most one digit and a run
        # stays short; a flip that turns `output.dir` into a path outside
        # this directory (`output.dir =/run`) is not run
        from mtlc.config import parse_flat

        bad = self._mutate(data.draw, (contract_dir / "one_epoch.cfg").read_bytes(), ("flip",))
        try:
            out = parse_flat(bad.decode("utf-8-sig")).get("output.dir", "")
        except (UnicodeDecodeError, ConfigError):
            out = ""
        assume(not os.path.isabs(out) and ".." not in out)
        (contract_dir / "bad.cfg").write_bytes(bad)
        assert self._main(contract_dir, ["train", "--config", "bad.cfg"]) in (0, 2, 3)
