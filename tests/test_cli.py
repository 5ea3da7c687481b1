"""Command-line surface: exit codes, artifacts, and end-to-end flows."""

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import labelset
from labelset.cli import main
from labelset.data import SyntheticSpec, generate_synthetic, synthetic_corpus, write_jsonl
from labelset.errors import EXIT_CONFIG, EXIT_DATA, EXIT_INTERNAL, EXIT_NUMERIC, EXIT_OK
from labelset.model import RunConfig, build_model, save_checkpoint


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A small synthetic corpus written as three JSONL files."""
    root = tmp_path_factory.mktemp("corpus")
    spec = SyntheticSpec(
        num_labels=5,
        vocab_size=30,
        train_size=24,
        valid_size=8,
        test_size=8,
        bias_pairs=((0, 1, 0.9),),
        seed=11,
    )
    train, valid, test = generate_synthetic(spec)
    write_jsonl(str(root / "train.jsonl"), train)
    write_jsonl(str(root / "valid.jsonl"), valid)
    write_jsonl(str(root / "test.jsonl"), test)
    return root


def write_config(path, corpus_dir, **overrides):
    config = {
        "train_path": str(corpus_dir / "train.jsonl"),
        "valid_path": str(corpus_dir / "valid.jsonl"),
        "test_path": str(corpus_dir / "test.jsonl"),
        "d_model": 16,
        "encoder_layers": 1,
        "encoder_heads": 2,
        "decoder_layers": 1,
        "decoder_heads": 2,
        "gcn_layers": 1,
        "max_len": 32,
        "epochs": 2,
        "batch_size": 4,
        "seed": 0,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_CONFIG

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--definitely-not-a-flag", "1"])
        assert exc.value.code == EXIT_CONFIG

    def test_missing_config_file(self, capsys):
        code = main(["graph", "--config", "/nonexistent/config.json"])
        assert code == EXIT_CONFIG
        assert "config" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["graph", "--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path, corpus_dir, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, corpus_dir, learnign_rate=0.1)  # typo on purpose
        code = main(["graph", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert "learnign_rate" in capsys.readouterr().err

    def test_missing_corpus_file_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "train_path": str(tmp_path / "missing.jsonl"),
            "out_dir": str(tmp_path / "out"),
        }))
        assert main(["graph", "--config", str(cfg)]) == EXIT_DATA

    def test_malformed_jsonl_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "train.jsonl"
        corpus.write_text('{"text": "ok", "labels": ["a"]}\nnot json\n')
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "train_path": str(corpus),
            "out_dir": str(tmp_path / "out"),
        }))
        code = main(["graph", "--config", str(cfg)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "train.jsonl:2" in err

    def test_train_without_valid_split_is_config_error(self, tmp_path, corpus_dir):
        cfg = tmp_path / "c.json"
        config = write_config(cfg, corpus_dir, out_dir=str(tmp_path / "out"))
        del config["valid_path"]
        del config["test_path"]
        cfg.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG

    def test_too_few_slots_is_config_error_before_training(self, tmp_path, corpus_dir, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, corpus_dir, out_dir=str(tmp_path / "out"))
        assert main(["train", "--config", str(cfg), "--m", "1"]) == EXIT_CONFIG
        assert "largest training gold set (3 labels)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "train_log.jsonl").exists()

    def test_bad_flag_value_is_config_error(self, tmp_path, corpus_dir):
        cfg = tmp_path / "c.json"
        write_config(cfg, corpus_dir, out_dir=str(tmp_path / "out"))
        assert main(["graph", "--config", str(cfg), "--tau", "7.0"]) == EXIT_CONFIG

    @pytest.mark.parametrize("key, value", [
        ("d_model", 16.0), ("epochs", 1.0), ("batch_size", 2.5), ("seed", -1), ("seed", 1.5),
        ("learning_rate", float("inf")), ("bc_weight", float("nan")),
        ("use_gcn", "no"), ("tau", True),
    ])
    def test_wrongly_typed_config_value_is_config_error(self, tmp_path, corpus_dir, key, value):
        cfg = tmp_path / "c.json"
        write_config(cfg, corpus_dir, out_dir=str(tmp_path / "out"), **{key: value})
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "out" / "best.npz").exists()

    def test_unexpected_exception_is_internal_error(self, monkeypatch, capsys):
        import labelset.cli as cli

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_graph", broken)
        assert main(["graph"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err

    def test_module_entry_point_runs_the_cli(self, tmp_path):
        # ``python -m labelset.cli`` runs the same CLI as the console script
        src = str(Path(labelset.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "labelset.cli", "graph", "--out", ""],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_CONFIG, done.stderr
        assert "error:" in done.stderr


class TestGraphCommand:
    def test_artifacts_and_summary(self, tmp_path, corpus_dir, capsys):
        from labelset.graph import load_matrix

        cfg = tmp_path / "c.json"
        out = tmp_path / "out"
        write_config(cfg, corpus_dir, out_dir=str(out), tau=0.1)
        assert main(["graph", "--config", str(cfg)]) == EXIT_OK

        for name in ("counts.txt", "cond_prob.txt", "reweighted.txt",
                     "summary.txt", "config.json"):
            assert (out / name).exists(), name

        reweighted = load_matrix(str(out / "reweighted.txt"))
        assert np.allclose(reweighted.sum(axis=1), 1.0, atol=1e-12)

        summary = (out / "summary.txt").read_text()
        assert "labels: 5" in summary
        assert "edges retained at tau=0.1" in summary
        captured = capsys.readouterr().out
        assert "labels: 5" in captured

    def test_biased_pair_shows_high_cond_prob(self, tmp_path, corpus_dir):
        # label1 follows label0 with probability 0.9 by construction, so the
        # dumped conditional matrix must put a heavy edge there.  Matrix rows
        # follow first-occurrence vocab order, so map names to indices first.
        from labelset.data import build_corpus, read_jsonl
        from labelset.graph import load_matrix

        cfg = tmp_path / "c.json"
        out = tmp_path / "out"
        write_config(cfg, corpus_dir, out_dir=str(out))
        main(["graph", "--config", str(cfg)])
        cond = load_matrix(str(out / "cond_prob.txt"))
        records, _ = read_jsonl(str(corpus_dir / "train.jsonl"))
        vocab = build_corpus(records, [], []).label_vocab
        i, j = vocab.index["label0"], vocab.index["label1"]
        assert cond[i, j] >= 0.7

    def test_tau_one_drops_every_edge(self, tmp_path, corpus_dir, capsys):
        cfg = tmp_path / "c.json"
        out = tmp_path / "out"
        write_config(cfg, corpus_dir, out_dir=str(out))
        assert main(["graph", "--config", str(cfg), "--tau", "1.0"]) == EXIT_OK
        assert "edges retained at tau=1.0: 0" in (out / "summary.txt").read_text()

    def test_config_echo_is_resolved(self, tmp_path, corpus_dir):
        cfg = tmp_path / "c.json"
        out = tmp_path / "out"
        write_config(cfg, corpus_dir, out_dir=str(out), seed=9)
        main(["graph", "--config", str(cfg), "--tau", "0.25"])
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["tau"] == 0.25
        assert echoed["seed"] == 9
        assert echoed["train_path"] == str(corpus_dir / "train.jsonl")


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "c.json"
    write_config(cfg, corpus_dir, out_dir=str(out / "artifacts"))
    code = main(["train", "--config", str(cfg)])
    assert code == EXIT_OK
    return out, cfg


class TestTrainEvalPredict:
    def test_train_writes_artifacts(self, trained):
        out, _cfg = trained
        art = out / "artifacts"
        assert (art / "best.npz").exists()
        assert (art / "train_log.jsonl").exists()
        assert (art / "config.json").exists()
        rows = [json.loads(l) for l in (art / "train_log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [1, 2]

    def test_train_writes_run_summary(self, tmp_path):
        # one duplicate label mention, one unseen label in each of valid and
        # test, and two training records longer than max_len = 5 tokens
        # (CLS and SEP included)
        rows = {
            "train": [("trig0 a", ["label0", "label0"]), ("trig1 a b c", ["label1"]),
                      ("trig0 a b c d", ["label0", "label1"]), ("trig1", ["label1"])],
            "valid": [("trig0 a", ["label0", "label9"])],
            "test": [("trig1 b", ["label1", "label8"])],
        }
        for split, records in rows.items():
            (tmp_path / f"{split}.jsonl").write_text("".join(
                json.dumps({"text": text, "labels": labels}) + "\n" for text, labels in records))
        cfg = tmp_path / "c.json"
        out = tmp_path / "out"
        write_config(cfg, tmp_path, out_dir=str(out), max_len=5, epochs=2)
        assert main(["train", "--config", str(cfg)]) == EXIT_OK
        summary = json.loads((out / "run_summary.json").read_text())
        log = [json.loads(l) for l in (out / "train_log.jsonl").read_text().splitlines()]
        best = max(log, key=lambda row: row["valid_f1"])
        assert summary == {
            "best_epoch": best["epoch"],
            "best_valid_f1": best["valid_f1"],
            "corpus_counters": {"duplicate_labels": 1, "dropped_unseen_labels": 2},
            "truncated_train_records": 2,
        }

    def test_eval_reports_dropped_labels(self, trained, tmp_path, capsys):
        out, _cfg = trained
        split = tmp_path / "test.jsonl"
        split.write_text(json.dumps({"text": "trig0 a", "labels": ["label0", "nope"]}) + "\n"
                         + json.dumps({"text": "trig1", "labels": ["gone", "lost"]}) + "\n")
        cfg = tmp_path / "c.json"
        write_config(cfg, tmp_path, test_path=str(split))
        code = main(["eval", "--config", str(cfg), "--checkpoint", str(out / "artifacts" / "best.npz")])
        assert code == EXIT_OK
        assert "dropped 3 mentions of labels" in capsys.readouterr().out

    def test_eval_prints_table_and_json(self, trained, capsys):
        out, cfg = trained
        checkpoint = out / "artifacts" / "best.npz"
        code = main(["eval", "--config", str(cfg),
                     "--checkpoint", str(checkpoint), "--split", "test"])
        assert code == EXIT_OK
        output = capsys.readouterr().out
        assert "F1(+)" in output
        assert "HL(-)" in output
        report = json.loads(output[output.index("{"):])
        assert set(report) == {"f1", "precision", "recall", "hamming_loss"}

    def test_eval_twice_identical(self, trained, capsys):
        out, cfg = trained
        checkpoint = out / "artifacts" / "best.npz"
        argv = ["eval", "--config", str(cfg), "--checkpoint", str(checkpoint)]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_eval_missing_checkpoint(self, trained, capsys):
        _out, cfg = trained
        code = main(["eval", "--config", str(cfg),
                     "--checkpoint", "/nonexistent/best.npz"])
        assert code == EXIT_CONFIG

    def test_predict_preserves_order_and_sorts_names(self, trained, tmp_path, capsys):
        out, _cfg = trained
        checkpoint = out / "artifacts" / "best.npz"
        inputs = tmp_path / "in.jsonl"
        lines = [
            {"text": "trig0 trig1 blue red"},
            {"text": "completely unseen words only"},
            {"text": "trig2 green"},
        ]
        inputs.write_text("".join(json.dumps(l) + "\n" for l in lines))
        outputs = tmp_path / "out.jsonl"
        code = main(["predict", "--checkpoint", str(checkpoint),
                     "--input", str(inputs), "--output", str(outputs)])
        assert code == EXIT_OK
        rows = [json.loads(l) for l in outputs.read_text().splitlines()]
        assert [r["text"] for r in rows] == [l["text"] for l in lines]
        for row in rows:
            assert row["predicted_labels"] == sorted(row["predicted_labels"])

    def test_predict_empty_input(self, trained, tmp_path):
        out, _cfg = trained
        checkpoint = out / "artifacts" / "best.npz"
        inputs = tmp_path / "empty.jsonl"
        inputs.write_text("")
        outputs = tmp_path / "out.jsonl"
        assert main(["predict", "--checkpoint", str(checkpoint),
                     "--input", str(inputs), "--output", str(outputs)]) == EXIT_OK
        assert outputs.read_text() == ""

    def test_eval_empty_split_is_data_error(self, trained, tmp_path, capsys):
        out, _cfg = trained
        split = tmp_path / "test.jsonl"
        split.write_text("")
        cfg = tmp_path / "c.json"
        write_config(cfg, tmp_path, test_path=str(split))
        code = main(["eval", "--config", str(cfg), "--checkpoint", str(out / "artifacts" / "best.npz")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "test split" in err and str(split) in err

    @pytest.mark.parametrize("command, flags", [
        ("graph", ["--m", "3"]),
        ("graph", ["--seed", "9"]),
        ("eval", ["--lambda", "0.5"]),
        ("predict", ["--config", "x"]),
        ("predict", ["--tau", "0.3"]),
        ("predict", ["--out", "x"]),  # not taken as an abbreviation of --output
    ], ids=["graph-m", "graph-seed", "eval-lambda", "predict-config", "predict-tau", "predict-out"])
    def test_unread_flag_is_usage_error(self, trained, corpus_dir, tmp_path, capsys, command, flags):
        out, _cfg = trained
        checkpoint = str(out / "artifacts" / "best.npz")
        cfg = tmp_path / "c.json"
        write_config(cfg, corpus_dir, out_dir=str(tmp_path / "out"))
        inputs = tmp_path / "in.jsonl"
        inputs.write_text(json.dumps({"text": "trig0"}) + "\n")
        argv = {
            "graph": ["--config", str(cfg)],
            "eval": ["--config", str(cfg), "--checkpoint", checkpoint],
            "predict": ["--checkpoint", checkpoint, "--input", str(inputs),
                        "--output", str(tmp_path / "pred.jsonl")],
        }[command]
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, *flags])
        assert exc.value.code == EXIT_CONFIG
        assert sorted(tmp_path.iterdir()) == before
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err


class TestAblateCommand:
    def test_four_variant_table(self, tmp_path, corpus_dir, capsys):
        cfg = tmp_path / "c.json"
        out = tmp_path / "out"
        write_config(cfg, corpus_dir, out_dir=str(out), epochs=1)
        assert main(["ablate", "--config", str(cfg)]) == EXIT_OK

        blob = json.loads((out / "ablation.json").read_text())
        assert set(blob) == {"full", "wo/GCN", "wo/BC", "bce"}
        for report in blob.values():
            assert set(report) == {"f1", "precision", "recall", "hamming_loss"}

        table_out = capsys.readouterr().out
        for name in ("full", "wo/GCN", "wo/BC", "bce"):
            assert name in table_out
            assert (out / name.replace("/", "_") / "best.npz").exists()


class TestDeterminism:
    def test_two_train_runs_identical_logs(self, tmp_path, corpus_dir):
        logs = []
        for tag in ("a", "b"):
            cfg = tmp_path / f"{tag}.json"
            out = tmp_path / tag
            write_config(cfg, corpus_dir, out_dir=str(out))
            assert main(["train", "--config", str(cfg)]) == EXIT_OK
            logs.append((out / "train_log.jsonl").read_text())
        assert logs[0] == logs[1]


# integers stay small: sizes and counts scale the work a run does
NON_TEXT_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.floats(),
    st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.text(max_size=3), st.none(), max_size=1))
JSON_VALUES = NON_TEXT_VALUES | st.text(max_size=8)
# a drawn path is one relative name, so whatever a run writes stays in its temporary directory
PATH_KEYS = {"train_path", "valid_path", "test_path", "out_dir"}
PATH_VALUES = NON_TEXT_VALUES | st.text(alphabet="ab.-_\x00", max_size=8).filter(
    lambda name: name not in (".", ".."))
CONFIG_OVERRIDES = st.lists(st.sampled_from([f.name for f in fields(RunConfig)]),
                            unique=True, max_size=3).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: PATH_VALUES if key in PATH_KEYS else JSON_VALUES for key in keys}))
JSONL_LINES = st.one_of(
    st.binary(max_size=24),
    st.builds(lambda obj: json.dumps(obj).encode(),
              st.dictionaries(st.sampled_from(["text", "labels"]), JSON_VALUES, max_size=2)))


class TestEveryInputEndsInADocumentedExit:
    @given(overrides=CONFIG_OVERRIDES, bad_line=st.none() | JSONL_LINES)
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_train_exits_0_to_3(self, corpus_dir, overrides, bad_line):
        """Any JSON value for any config key, and any extra training line,
        ends in exit 0-3; a config error leaves no checkpoint."""
        start = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)   # relative paths drawn for path keys land here
            try:
                train = os.path.join(tmp, "train.jsonl")
                with open(train, "wb") as fh:
                    fh.write((corpus_dir / "train.jsonl").read_bytes())
                    if bad_line is not None:
                        fh.write(bad_line + b"\n")
                cfg = Path(tmp) / "c.json"
                write_config(cfg, corpus_dir, **{
                    "train_path": train, "out_dir": os.path.join(tmp, "out"), "d_model": 8,
                    "max_len": 16, "epochs": 1, **overrides})
                # a diverging run warns on its way to exit 3; the suite makes warnings errors
                with np.errstate(all="ignore"):
                    code = main(["train", "--config", str(cfg)])
                assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)
                if code == EXIT_CONFIG:
                    assert not any("best.npz" in files for _, _, files in os.walk(tmp))
            finally:
                os.chdir(start)


@pytest.mark.parametrize("head, name, poison", [
    ("bce", "param/bce.readout.bias", lambda a: np.where(np.arange(a.size) == 0, np.nan, a)),
    ("set_prediction", "param/decoder.head.bias", lambda a: np.full_like(a, np.nan)),
    ("set_prediction", "param/encoder.token_embed", lambda a: np.where(a > 0, np.inf, a)),
    ("set_prediction", "param/decoder.head.weight", lambda a: a.astype(np.complex128)),
    ("set_prediction", "param/decoder.head.weight", lambda a: a.astype(str)),
    ("set_prediction", "__propagation__", lambda a: np.full_like(a, np.nan)),
    ("set_prediction", "__config__", lambda a: np.array("{not json")),
    ("set_prediction", "__config__", lambda a: np.array("null")),
    ("set_prediction", "__version__", lambda a: np.array("x")),
    ("set_prediction", "__config__", lambda a: None),
    ("set_prediction", "__labels__", lambda a: None),
    ("set_prediction", "__labels__", lambda a: np.array("label0")),
    ("set_prediction", "__labels__", lambda a: np.concatenate([a[:1], a[:-1]])),
    ("set_prediction", "__tokens__", lambda a: np.concatenate([a[:-1], a[-2:-1]])),
    ("set_prediction", "__tokens__", lambda a: np.concatenate([a[1:4], a[:1], a[4:]])),
], ids=["bce-nan", "set-nan", "set-inf", "complex", "string", "propagation-nan",
        "config-not-json", "config-null", "version-not-int", "config-missing", "labels-missing",
        "labels-scalar", "labels-repeated", "tokens-repeated", "tokens-specials-reordered"])
def test_predict_rejects_a_bad_checkpoint_array(tmp_path, capsys, head, name, poison):
    corpus = synthetic_corpus(SyntheticSpec(num_labels=5, vocab_size=30, train_size=24,
                                            valid_size=8, test_size=8, seed=11))
    config = RunConfig(d_model=8, encoder_layers=1, decoder_layers=1, encoder_heads=2,
                       decoder_heads=2, gcn_layers=1, max_len=16, head=head)
    checkpoint = tmp_path / "best.npz"
    save_checkpoint(str(checkpoint), build_model(config, corpus))
    with np.load(str(checkpoint), allow_pickle=False) as archive:
        blob = {key: archive[key] for key in archive.files}
    blob[name] = poison(blob[name])
    if blob[name] is None:   # the array goes missing
        del blob[name]
    np.savez(str(checkpoint), **blob)
    inputs = tmp_path / "in.jsonl"
    inputs.write_text(json.dumps({"text": "trig0 a"}) + "\n")
    outputs = tmp_path / "out.jsonl"
    code = main(["predict", "--checkpoint", str(checkpoint),
                 "--input", str(inputs), "--output", str(outputs)])
    assert code == EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert not outputs.exists()
