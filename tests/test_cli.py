"""End-to-end command-line behavior: exit codes, artifacts, determinism."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from mtlc.cli import main
from mtlc.data import schemas_for_language
from mtlc.metrics import build_report, report_to_dict
from mtlc.toy import materialize, toy_tsv


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
        for fname in ("train.tsv", "val.tsv", "test.tsv", "manifest.txt"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_bad_labels_exit_3_with_line_number(self, tmp_path, capsys):
        src = tmp_path / "bad.tsv"
        rows = ["ok {}\tPositive\tNot offensive".format(i) for i in range(9)]
        rows.insert(2, "broken\tHappy\tNot offensive")
        src.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["split", "--input", str(src), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        assert "line 3" in capsys.readouterr().err

    def test_merge_pair_inputs(self, tmp_path, capsys):
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

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["split", "--out-dir", str(tmp_path / "x")]) == 2

    def test_non_finite_ratios_exit_2(self, tmp_path, capsys):
        src = tmp_path / "corpus.tsv"
        src.write_text(toy_tsv(), encoding="utf-8")
        out = tmp_path / "o"
        code = main(["split", "--input", str(src), "--out-dir", str(out), "--ratios", "nan,0.5,0.5"])
        assert code == 2
        assert "(nan, 0.5, 0.5)" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_artifacts_and_summary(self, trained_run, capsys):
        for name in ("checkpoint.mtlc", "vocab.txt", "trace.tsv", "report.json", "report.txt"):
            assert (trained_run / name).exists(), name
        trace = (trained_run / "trace.tsv").read_text(encoding="utf-8").splitlines()
        assert len(trace) == 1 + 2  # header + 2 epochs
        assert trace[0].split("\t")[0] == "epoch"
        report = json.loads((trained_run / "report.json").read_text(encoding="utf-8"))
        assert set(report["tasks"]) == {"sentiment", "offense"}

    def test_repeat_run_is_byte_identical(self, toy_dir, fast_cfg, trained_run):
        before = {
            name: (trained_run / name).read_bytes()
            for name in ("checkpoint.mtlc", "vocab.txt", "trace.tsv", "report.json", "report.txt")
        }
        assert main(["train", "--config", str(fast_cfg)]) == 0
        for name, blob in before.items():
            assert (trained_run / name).read_bytes() == blob, name

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
        assert "coupled layer 'layer0.wq'" in capsys.readouterr().err

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
        names = ("checkpoint.mtlc", "vocab.txt", "trace.tsv", "report.json", "report.txt")
        assert main(["train", "--config", str(cfg)]) == 0
        good = {name: (tmp_path / "run" / name).read_bytes() for name in names}
        test_tsv.write_text("broken\tHappy\tNot offensive\nno tabs here\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 0
        for name in names:
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

    def test_seed_sources(self, toy_dir, fast_cfg, tmp_path, monkeypatch, capsys):
        # env beats config; flag beats env: verify via the embedded config text
        from mtlc.checkpoint import load_checkpoint

        text = fast_cfg.read_text(encoding="utf-8")
        for name, argv, env in (
            ("env", [], "123"),
            ("flag", ["--seed", "77"], "123"),
        ):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(
                text.replace(f"output.dir = {toy_dir}/run_fast", f"output.dir = {tmp_path}/{name}")
                .replace("train.epochs = 2", "train.epochs = 1"),
                encoding="utf-8",
            )
            monkeypatch.setenv("MTLC_SEED", env)
            assert main(["train", "--config", str(cfg)] + argv) == 0
            config_text, _ = load_checkpoint(str(tmp_path / name / "checkpoint.mtlc"))
            expected = "123" if name == "env" else "77"
            assert f"train.seed = {expected}" in config_text


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

    def test_corrupt_checkpoint_exits_5(self, trained_run, tmp_path, toy_dir, capsys):
        blob = bytearray((trained_run / "checkpoint.mtlc").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "bad.mtlc"
        bad.write_bytes(bytes(blob))
        import shutil

        shutil.copy(trained_run / "vocab.txt", tmp_path / "vocab.txt")
        code = main(["evaluate", "--checkpoint", str(bad), "--data", str(toy_dir / "val.tsv")])
        assert code == 5

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

        # save a marker value in pooler_w, then overwrite its bytes with NaN
        config_text, arrays = load_checkpoint(str(trained_run / "checkpoint.mtlc"))
        arrays["pooler_w"] = np.full(arrays["pooler_w"].shape, 3.0)
        body = serialize(config_text, arrays)[:-4]
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
        ],
    )
    def test_embedded_config_with_an_unused_bad_value_exits_2(
        self, trained_run, tmp_path, toy_dir, line
    ):
        import shutil

        from mtlc.checkpoint import load_checkpoint, save_checkpoint

        config_text, arrays = load_checkpoint(str(trained_run / "checkpoint.mtlc"))
        key = line.partition(" =")[0]
        lines = [line if row.startswith(key + " =") else row for row in config_text.splitlines()]
        assert line in lines
        bad = tmp_path / "bad.mtlc"
        save_checkpoint(str(bad), "\n".join(lines) + "\n", arrays)
        shutil.copy(trained_run / "vocab.txt", tmp_path / "vocab.txt")
        code = main(["evaluate", "--checkpoint", str(bad), "--data", str(toy_dir / "val.tsv")])
        assert code == 2
        assert not (tmp_path / "eval_report.json").exists()

    def test_missing_vocab_exits_2(self, trained_run, toy_dir, tmp_path):
        import shutil

        lonely = tmp_path / "lonely.mtlc"
        shutil.copy(trained_run / "checkpoint.mtlc", lonely)
        code = main(["evaluate", "--checkpoint", str(lonely), "--data", str(toy_dir / "val.tsv")])
        assert code == 2


    def test_vocab_directory_exits_2(self, trained_run, toy_dir, tmp_path, capsys):
        args = ["--checkpoint", str(trained_run / "checkpoint.mtlc"), "--vocab", str(tmp_path)]
        args += ["--data", str(toy_dir / "val.tsv"), "--out-dir", str(tmp_path / "out")]
        assert main(["evaluate", *args]) == 2
        assert "--vocab" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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


class TestHeapSetting:
    @pytest.fixture
    def mallopt_calls(self, monkeypatch):
        """Calls `cli.main` makes to mallopt, with the once-per-process flag reset."""
        import mtlc.cli as cli

        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli, "_heap_set", False)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        return calls

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
