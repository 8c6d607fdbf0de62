import json
import math
import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primcount.cli as cli_mod
from primcount.cli import (
    ConfigError,
    RunConfig,
    holdout_split,
    load_run_config,
    main,
    predict_sessions,
    stream_replay,
)
from primcount.dataset import (
    KIND_QUATERNION,
    ChannelDescriptor,
    ChannelManifest,
    DataError,
    IMURecording,
    PrimitiveClass,
    SynthSpec,
    SyntheticDataset,
    load_dataset,
    save_dataset,
    synthesize_dataset,
)
from primcount.decoding import (
    SessionPrediction, count, decode_windows, stitch_append, stitch_windows,
)
from primcount.model import EnsembleModel, ModelConfig, ModelParams, init_params, load_ensemble
from primcount.preprocess import NormalizationStats, WindowSpec, make_windows


def mini_config(tmp_path, name="cfg.json", **extra):
    cfg = {
        "data_root": str(tmp_path / "data"),
        "out_dir": str(tmp_path / "out"),
        "seed": 5,
        "n_subjects": 6,
        "trials_per_subject": 1,
        "duration_s": 30.0,
        "sample_rate_hz": 20.0,
        "n_channels": 10,
        "hidden_dim": 8,
        "embed_dim": 8,
        "max_epochs": 2,
        "patience": 2,
        "n_folds": 2,
        "test_fraction": 0.34,
    }
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def test_config_roundtrip_lossless():
    cfg = RunConfig(seed=7, hidden_dim=12, with_baseline=True)
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_json({"hidden": 3})


@pytest.mark.parametrize("key, value", [
    ("batch_size", "32"),
    ("learning_rate", "0.002"),
    ("hidden_dim", "16"),
    ("hidden_dim", 16.0),
    ("n_folds", True),
    ("with_baseline", 1),
    ("data_root", 3),
    ("duration_s", None),
    ("duration_s", math.nan),
    ("learning_rate", math.inf),
])
def test_config_type_error_is_usage_error(tmp_path, capsys, key, value):
    cfg = mini_config(tmp_path, **{key: value})
    assert main(["synth", "--config", str(cfg)]) == 2
    assert f"config {key} must be " in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", ["synth", "train"])
@pytest.mark.parametrize("extra, args, message", [
    ({}, ["--seed", "-1"], "config seed must be non-negative, got -1"),
    ({"seed": -2}, [], "config seed must be non-negative, got -2"),
    ({"test_fraction": 0.0}, [], "config test_fraction must lie in (0, 1), got 0.0"),
    ({"test_fraction": -3.0}, [], "config test_fraction must lie in (0, 1), got -3.0"),
    ({"test_fraction": 1.0}, [], "config test_fraction must lie in (0, 1), got 1.0"),
], ids=["seed-flag", "seed-key", "zero-fraction", "negative-fraction", "whole-fraction"])
def test_config_value_out_of_range_is_usage_error(tmp_path, capsys, command, extra, args, message):
    cfg = mini_config(tmp_path, **extra)
    assert main([command, "--config", str(cfg), *args]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("name", ["configs/smoke.json", "configs/desk.json",
                                  "perfbench/fit_small.json"])
def test_shipped_configs_build_a_window_spec(name):
    path = Path(__file__).resolve().parents[1] / name
    cfg = load_run_config(str(path), {})
    obj = json.loads(path.read_text())
    obj.pop("test_slide_s", None)  # retired; accepted while it equals core_s
    assert cfg == RunConfig.from_json(obj)
    spec = cfg.window_spec()
    assert spec.test_slide_frames == spec.core_frames


def test_desk_config_holds_the_defaults():
    path = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
    assert json.loads(path.read_text()) == RunConfig().to_json()


def test_core_alone_sets_the_test_slide():
    spec = RunConfig.from_json({"core_s": 2.0, "window_s": 4.0}).window_spec()
    assert spec.test_slide_frames == spec.core_frames == 200


def test_config_accepts_int_for_float_field():
    assert RunConfig.from_json({"duration_s": 30, "learning_rate": 1}).duration_s == 30


def test_config_hash_changes_with_any_field():
    base = RunConfig()
    assert base.config_hash() == RunConfig().config_hash()
    for field, value in [
        ("seed", 1),
        ("hidden_dim", 65),
        ("smoother_beta", 5.0),
        ("data_root", "elsewhere"),
    ]:
        assert replace(base, **{field: value}).config_hash() != base.config_hash()


def test_config_file_loading(tmp_path):
    path = mini_config(tmp_path)
    cfg = load_run_config(str(path), {})
    assert cfg.n_subjects == 6
    cfg2 = load_run_config(str(path), {"seed": 9, "out_dir": None})
    assert cfg2.seed == 9 and cfg2.n_subjects == 6


def test_missing_config_is_usage_error(tmp_path):
    out = tmp_path / "never"
    code = main(["eval", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_invalid_json_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", "--config", str(bad)]) == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_train_takes_n_folds_from_the_config_only():
    with pytest.raises(SystemExit) as e:
        main(["train", "--folds", "3"])
    assert e.value.code == 2


def test_holdout_split_deterministic():
    ids = [f"s{i:02d}" for i in range(8)]
    pool, test = holdout_split(ids, 0.25, seed=3)
    assert sorted(pool + test) == ids
    assert len(test) == 2
    assert holdout_split(ids, 0.25, seed=3) == (pool, test)
    assert holdout_split(ids, 0.25, seed=4) != (pool, test)
    with pytest.raises(DataError):
        holdout_split(["only"], 0.25, seed=0)
    with pytest.raises(DataError):
        holdout_split(ids, 0.99, seed=0)


# ---------------------------------------------------------------------------
# Commands on a miniature run
# ---------------------------------------------------------------------------


def test_synth_deterministic(tmp_path):
    cfg_a = mini_config(tmp_path, name="a.json", data_root=str(tmp_path / "a"))
    cfg_b = mini_config(tmp_path, name="b.json", data_root=str(tmp_path / "b"))
    assert main(["synth", "--config", str(cfg_a)]) == 0
    assert main(["synth", "--config", str(cfg_b)]) == 0
    tree = tree_bytes(tmp_path / "a")
    assert tree == tree_bytes(tmp_path / "b")
    n_csv = sum(name.endswith(".csv") for name in tree)
    assert n_csv > 0 and sum(name.endswith(".npy") for name in tree) == n_csv


def test_synth_seed_changes_data(tmp_path):
    cfg = mini_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    first = tree_bytes(tmp_path / "data")
    assert main(["synth", "--config", str(cfg), "--seed", "6"]) == 0
    assert tree_bytes(tmp_path / "data") != first


def test_failed_writer_exits_1_naming_the_path(tmp_path, monkeypatch, capsys):
    import multiprocessing

    from primcount import dataset, parallel

    for module in (dataset, parallel):
        monkeypatch.setattr(module, "_usable_cpus", lambda: 2)
    cfg = mini_config(tmp_path)
    # the last of six recordings, written by the second of two forked writers
    blocked = tmp_path / "data" / "recordings" / "s05__drill_a__0.csv"
    blocked.mkdir(parents=True)
    assert main(["synth", "--config", str(cfg)]) == 1
    assert f"{blocked}" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_killed_writer_exits_1_naming_the_job(tmp_path, monkeypatch, capsys):
    import multiprocessing
    import os
    import signal

    from primcount import dataset, parallel

    for module in (dataset, parallel):
        monkeypatch.setattr(module, "_usable_cpus", lambda: 2)
    original = dataset.save_recording

    # the last of six recordings, written by the second of two forked writers
    def last_killed(labeled, directory, manifest):
        if labeled.recording.recording_id == "s05/drill_a/0":
            os.kill(os.getpid(), signal.SIGKILL)
        return original(labeled, directory, manifest)

    monkeypatch.setattr(dataset, "save_recording", last_killed)
    assert main(["synth", "--config", str(mini_config(tmp_path))]) == 1
    assert "error: job 1 worker exited with code -9" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_predict_without_models_fails(tmp_path):
    cfg = mini_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["predict", "--config", str(cfg)]) == 1


def test_eval_without_predictions_fails(tmp_path):
    cfg = mini_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    (tmp_path / "out").mkdir(exist_ok=True)
    assert main(["eval", "--config", str(cfg)]) == 1


def test_train_without_data_fails(tmp_path):
    cfg = mini_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 1


def test_train_divergence_exits_1(tmp_path, monkeypatch, capsys):
    import primcount.model as model_mod

    original = model_mod.init_params

    def poisoned(config, seed):
        params = original(config, seed)
        params.out_b[0] = np.nan
        return params

    cfg = mini_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    monkeypatch.setattr(model_mod, "init_params", poisoned)
    assert main(["train", "--config", str(cfg)]) == 1
    assert "diverged" in capsys.readouterr().err


def test_sample_rate_mismatch_fails(tmp_path, capsys):
    cfg = mini_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    other = mini_config(tmp_path, name="other.json", sample_rate_hz=100.0)
    assert main(["train", "--config", str(other)]) == 1
    assert "config sample_rate_hz is 100.0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "split.json").exists()


def save_quaternion_dataset(root: Path, zero_row: int | None = None) -> None:
    """The mini config's dataset with channels 4-7 one quaternion group of
    random, non-unit values; ``zero_row`` zeroes that frame of the first
    recording's group."""
    data = synthesize_dataset(SynthSpec(n_subjects=6, trials_per_subject=1, duration_s=30.0,
                                        sample_rate_hz=20.0, n_channels=10), seed=5)
    channels = list(data.manifest.channels)
    channels[4:8] = [ChannelDescriptor(f"q_{c}", "imu", KIND_QUATERNION, "1") for c in "wxyz"]
    rng = np.random.default_rng(0)
    for labeled in data.recordings:
        frames = np.array(labeled.recording.frames)
        frames[:, 4:8] = rng.normal(size=(len(frames), 4)) * 2.0
        labeled.recording = labeled.recording.with_frames(frames)
    if zero_row is not None:
        frames = np.array(data.recordings[0].recording.frames)
        frames[zero_row, 4:8] = 0.0
        data.recordings[0].recording = data.recordings[0].recording.with_frames(frames)
    save_dataset(SyntheticDataset(data.recordings, data.subjects, ChannelManifest(tuple(channels))),
                 root)


def test_train_and_predict_on_quaternion_data(tmp_path):
    cfg = mini_config(tmp_path)
    save_quaternion_dataset(tmp_path / "data")
    for command in ["train", "predict", "count", "eval"]:
        assert main([command, "--config", str(cfg)]) == 0
    assert len((tmp_path / "out" / "sequences.jsonl").read_text().splitlines()) == 2


def test_zero_norm_quaternion_in_frames_file_exits_1(tmp_path, capsys):
    cfg = mini_config(tmp_path)
    save_quaternion_dataset(tmp_path / "data", zero_row=7)
    frames_path = sorted((tmp_path / "data" / "recordings").glob("*.csv"))[0]
    assert ",0.0,0.0,0.0,0.0," in frames_path.read_text().splitlines()[8]
    assert main(["train", "--config", str(cfg)]) == 1
    assert f"error: {frames_path}: zero-norm quaternion" in capsys.readouterr().err


BASELINE = {"with_baseline": True, "baseline_context_frames": 9, "smoother_length": 9}


def test_eval_with_baseline_on_constant_edge_channel(tmp_path):
    # rounding puts the edge-frame mean of a constant 0.1 channel just past
    # its extremes; the baseline features must still come out finite
    cfg = mini_config(tmp_path, **BASELINE)
    data = synthesize_dataset(SynthSpec(n_subjects=6, trials_per_subject=1, duration_s=30.0,
                                        sample_rate_hz=20.0, n_channels=10), seed=5)
    for labeled in data.recordings:
        frames = np.array(labeled.recording.frames)
        frames[:10, 0] = 0.1
        labeled.recording = labeled.recording.with_frames(frames)
    save_dataset(data, tmp_path / "data")
    for command in ["train", "predict", "eval"]:
        assert main([command, "--config", str(cfg)]) == 0
    assert "overall" in json.loads((tmp_path / "out" / "report.json").read_text())["baseline"]


def test_eval_with_baseline_on_recordings_shorter_than_smoother(tmp_path):
    cfg = mini_config(tmp_path, duration_s=0.4, **BASELINE)  # 8 frames, 9 taps
    for command in ["synth", "train", "predict", "eval"]:
        assert main([command, "--config", str(cfg)]) == 0
    assert "overall" in json.loads((tmp_path / "out" / "report.json").read_text())["baseline"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    cfg = mini_config(tmp)
    for command in ["synth", "train", "predict", "count", "eval"]:
        assert main([command, "--config", str(cfg)]) == 0
    return tmp, cfg


def test_pipeline_outputs_exist(pipeline):
    tmp, _ = pipeline
    out = tmp / "out"
    for name in [
        "model.0.bin",
        "model.1.bin",
        "sequences.jsonl",
        "counts.csv",
        "metrics.csv",
        "report.json",
        "split.json",
        "train_log.json",
    ]:
        assert (out / name).is_file(), name


def test_pipeline_report_shape(pipeline):
    tmp, cfg_path = pipeline
    report = json.loads((tmp / "out" / "report.json").read_text())
    cfg = load_run_config(str(cfg_path), {})
    assert report["config_hash"] == cfg.config_hash()
    assert set(report["metrics"]) == {"overall", "subject", "activity", "primitive_class"}
    assert set(report["metrics"]["primitive_class"]) == {
        "reach", "reposition", "transport", "stabilize", "idle",
    }
    assert report["versions"]["primcount"]
    assert "train" in report["timing"]
    assert len(report["counting"]) == 2  # held-out recordings


def test_pipeline_counts_csv(pipeline):
    tmp, _ = pipeline
    lines = (tmp / "out" / "counts.csv").read_text().splitlines()
    assert lines[0] == "recording,class,true,predicted,error_pct"
    # five classes plus pooled row per recording
    assert len(lines) == 1 + 2 * 6


def test_rerun_is_byte_identical(pipeline):
    tmp, cfg_path = pipeline
    out2 = tmp / "out2"
    for command in ["train", "predict", "count", "eval"]:
        assert main([command, "--config", str(cfg_path), "--out", str(out2)]) == 0

    first = json.loads((tmp / "out" / "report.json").read_text())
    second = json.loads((out2 / "report.json").read_text())
    first.pop("timing")
    second.pop("timing")
    # out dir leaks into the stored config; drop it before comparing
    assert first.pop("config")["out_dir"] != second.pop("config")["out_dir"]
    first.pop("config_hash")
    second.pop("config_hash")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    for name in ["model.0.bin", "model.1.bin"]:
        assert (tmp / "out" / name).read_bytes() == (out2 / name).read_bytes()
    assert (tmp / "out" / "sequences.jsonl").read_bytes() == (
        out2 / "sequences.jsonl"
    ).read_bytes()


def _held_out_and_pool_ids(data: Path, out: Path) -> tuple[str, str]:
    """First held-out recording of sequences.jsonl and one pool recording."""
    held_out = json.loads((out / "sequences.jsonl").read_text().splitlines()[0])["recording"]
    pool = set(json.loads((out / "split.json").read_text())["pool_subjects"])
    other = next(r.recording_id for r in load_dataset(data).recordings
                 if r.recording.subject_id in pool)
    return held_out, other


@pytest.mark.parametrize("command", ["count", "eval"])
@pytest.mark.parametrize("line, message", [
    ('{"recording": "s00_t0", "sequence": [\n', "invalid JSON"),
    ('{"sequence": ["reach"]}\n', 'expected an object with a "recording" string'),
    ('{"recording": ["s00"], "sequence": []}\n', 'expected an object with a "recording"'),
    ('["s00", []]\n', 'expected an object with a "recording" string'),
    ('{"recording": "POOL", "sequence": []}\n', "POOL is not a held-out recording"),
    ('{"recording": "HELD_OUT", "sequence": []}\n', "second prediction for HELD_OUT"),
], ids=["invalid-json", "missing-key", "list-recording", "not-an-object", "not-held-out",
        "second-prediction"])
def test_malformed_sequences_line_is_data_error(
    pipeline, tmp_path, capsys, command, line, message
):
    tmp, cfg_path = pipeline
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    held_out, pool = _held_out_and_pool_ids(tmp / "data", out)
    line = line.replace("HELD_OUT", held_out).replace("POOL", pool)
    message = message.replace("HELD_OUT", held_out).replace("POOL", pool)
    with open(out / "sequences.jsonl", "a") as fh:
        fh.write(line)
    lineno = len((out / "sequences.jsonl").read_text().splitlines())
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"sequences.jsonl:{lineno}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count", "eval"])
def test_missing_prediction_is_data_error(pipeline, tmp_path, capsys, command):
    tmp, cfg_path = pipeline
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    path = out / "sequences.jsonl"
    first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text("".join(rest))
    missing = json.loads(first)["recording"]
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"error: {path}: no prediction for {missing}" in capsys.readouterr().err


def test_retrain_with_fewer_folds_replaces_the_ensemble(pipeline, tmp_path, monkeypatch):
    tmp, _ = pipeline
    for n_folds in (3, 2):  # both write to tmp_path / "out"
        cfg_path = mini_config(tmp_path, f"folds{n_folds}.json", n_folds=n_folds,
                               data_root=str(tmp / "data"))
        assert main(["train", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.glob("model.*.bin")) == ["model.0.bin", "model.1.bin"]
    loaded = []
    monkeypatch.setattr(cli_mod, "load_ensemble",
                        lambda paths: loaded.append(load_ensemble(paths)) or loaded[-1])
    assert main(["predict", "--config", str(cfg_path)]) == 0
    assert [len(e.members) for e in loaded] == [2]


def test_hold_out_is_drawn_from_subjects_with_recordings(pipeline, tmp_path, capsys):
    # subjects.json may list subjects without recordings; drawn into the
    # split, they left too few recorded subjects on either side
    tmp, cfg_path = pipeline
    data = tmp_path / "data"
    shutil.copytree(tmp / "data", data)
    subjects = json.loads((data / "subjects.json").read_text())
    recorded = sorted(subjects)
    for i in range(6):
        subjects[f"s{10 + i}"] = {"paretic_side": "left", "ue_fma_score": 40}
    (data / "subjects.json").write_text(json.dumps(subjects))
    argv = ["train", "--config", str(cfg_path), "--data", str(data), "--out", str(tmp_path)]
    assert main(argv) == 0
    split = json.loads((tmp_path / "split.json").read_text())
    assert split == json.loads((tmp / "out" / "split.json").read_text())
    assert sorted(split["pool_subjects"] + split["test_subjects"]) == recorded
    assert f"on {len(split['pool_subjects'])} subjects" in capsys.readouterr().out


def test_eval_counts_the_current_predictions(pipeline, tmp_path):
    tmp, cfg_path = pipeline
    expected = json.loads((tmp / "out" / "counts.json").read_text())
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    stale = json.loads((out / "counts.json").read_text())
    stale[0]["predicted"]["reach"] += 5
    (out / "counts.json").write_text(json.dumps(stale))
    assert main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["counting"] == expected
    # without any counts.json, as when count never ran
    (out / "counts.json").unlink()
    assert main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["counting"] == expected


def test_unreadable_model_file_exits_1(pipeline, tmp_path, capsys):
    _, cfg_path = pipeline
    out = tmp_path / "out"
    out.mkdir()
    (out / "model.0.bin").write_text("not a model\n")
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "not a model file" in capsys.readouterr().err


def test_stray_model_file_name_exits_1(pipeline, tmp_path, capsys):
    tmp, cfg_path = pipeline
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    shutil.copy(out / "model.0.bin", out / "model.best.bin")
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"error: {out / 'model.best.bin'}: not a model file name" in capsys.readouterr().err


def test_non_finite_normalization_in_model_file_exits_1(pipeline, tmp_path, capsys):
    tmp, cfg_path = pipeline
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    doc = json.loads((out / "model.1.bin").read_text())
    doc["normalization"]["std"][0] = math.nan
    doc["normalization"]["mean"][1] = math.inf
    (out / "model.1.bin").write_text(json.dumps(doc))
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "mean/std must be finite" in capsys.readouterr().err


def test_help_gives_every_command_a_summary(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
    for name in cli_mod.COMMANDS:
        summaries = [words[1].strip() for words in lines if words[:1] == [name] and len(words) == 2]
        assert summaries and summaries[0], name


def test_killed_encoding_worker_exits_1(pipeline, tmp_path, monkeypatch, capsys):
    import os
    import signal

    import primcount.decoding as decoding_mod

    tmp, cfg_path = pipeline
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)

    def killed(params, xs):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(decoding_mod, "_encode_batch", killed)
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "error: job 0 worker exited with code -9" in capsys.readouterr().err


def _insert_invalid_utf8(path: Path) -> None:
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2] + b"\xff" + raw[len(raw) // 2:])


def _truncate(path: Path) -> None:
    path.write_text(path.read_text()[:20])


def _drop_paretic_side(path: Path) -> None:
    subjects = json.loads(path.read_text())
    del next(iter(subjects.values()))["paretic_side"]
    path.write_text(json.dumps(subjects))


@pytest.mark.parametrize("pattern, edit, message", [
    ("recordings/*.csv", _insert_invalid_utf8, "parse failure"),
    ("recordings/*.labels.json", _insert_invalid_utf8, "parse failure"),
    ("recordings/*.meta.json", _insert_invalid_utf8, "parse failure"),
    ("manifest.json", _truncate, "parse failure"),
    ("subjects.json", _truncate, "parse failure"),
    ("subjects.json", _drop_paretic_side, "malformed subject"),
], ids=["csv-utf8", "labels-utf8", "meta-utf8", "truncated-manifest",
        "truncated-subjects", "missing-paretic-side"])
def test_malformed_data_file_exits_1(pipeline, tmp_path, capsys, pattern, edit, message):
    tmp, cfg_path = pipeline
    data = tmp_path / "data"
    shutil.copytree(tmp / "data", data)
    path = sorted(data.glob(pattern))[0]
    edit(path)
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    assert main(["predict", "--config", str(cfg_path), "--data", str(data),
                 "--out", str(out)]) == 1
    assert f"error: {path}: {message}" in capsys.readouterr().err


def _drop_test_subjects(path: Path) -> None:
    split = json.loads(path.read_text())
    del split["test_subjects"]
    path.write_text(json.dumps(split))


@pytest.mark.parametrize("command", ["predict", "eval"])
@pytest.mark.parametrize("edit, message", [
    (_truncate, "parse failure"),
    (_drop_test_subjects, 'expected a "test_subjects" list of subject ids'),
], ids=["invalid-json", "missing-test-subjects"])
def test_malformed_split_file_exits_1(pipeline, tmp_path, capsys, command, edit, message):
    tmp, cfg_path = pipeline
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    edit(out / "split.json")
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"error: {out / 'split.json'}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("text, message", [
    ('{"synth": 1.0', "parse failure"),
    ("[1.0]", "expected a JSON object of stage timings"),
], ids=["invalid-json", "not-an-object"])
def test_malformed_timings_file_exits_1(pipeline, tmp_path, capsys, command, text, message):
    tmp, cfg_path = pipeline
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    (out / "timings.json").write_text(text)
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"error: {out / 'timings.json'}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command, geometry, message", [
    ("train", {"train_slide_s": 0.0}, "train_slide_s = 0.0 s is shorter than one frame"),
    ("predict", {"test_slide_s": 0.0}, "test_slide_s = 0.0 s is shorter than one frame"),
    ("predict", {"test_slide_s": 2.0}, "test_slide_s = 2.0 s must equal core_s = 4.0 s"),
    ("predict", {"test_slide_s": 6.0}, "test_slide_s = 6.0 s must equal core_s = 4.0 s"),
], ids=["zero-train-slide", "zero-test-slide", "overlapping-test-cores", "gapped-test-cores"])
def test_uncuttable_geometry_exits_1(pipeline, tmp_path, capsys, command, geometry, message):
    tmp, _ = pipeline
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    cfg = mini_config(tmp_path, data_root=str(tmp / "data"), out_dir=str(out), **geometry)
    assert main([command, "--config", str(cfg)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_stream_command_writes_events(pipeline):
    tmp, cfg_path = pipeline
    assert main(["stream", "--config", str(cfg_path), "--speed", "inf"]) == 0
    events = [
        json.loads(line)
        for line in (tmp / "out" / "stream_events.jsonl").read_text().splitlines()
    ]
    assert events
    emits = [e["emit_monotonic_s"] for e in events]
    assert all(b >= a for a, b in zip(emits, emits[1:]))
    stream_report = json.loads((tmp / "out" / "stream_report.json").read_text())
    assert stream_report["speed"] == "inf"
    assert stream_report["counts"] == events[-1]["counts"]


def test_stream_unknown_recording(pipeline):
    tmp, cfg_path = pipeline
    assert main(["stream", "--config", str(cfg_path), "--speed", "inf",
                 "--recording", "nope/x/0"]) == 1


@pytest.mark.parametrize("command", ["predict", "stream", "count", "eval"])
def test_held_out_subjects_without_recordings_exit_1(pipeline, tmp_path, capsys, command):
    tmp, cfg_path = pipeline
    out = tmp_path / "out"
    shutil.copytree(tmp / "out", out)
    split = json.loads((out / "split.json").read_text())
    (out / "split.json").write_text(json.dumps({**split, "test_subjects": ["nobody"]}))
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    assert main(argv + (["--speed", "inf"] if command == "stream" else [])) == 1
    assert "error: no recordings for held-out subjects" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stream_replay against batch mode
# ---------------------------------------------------------------------------


def test_stream_matches_batch(pipeline):
    tmp, cfg_path = pipeline
    cfg = load_run_config(str(cfg_path), {})
    dataset = load_dataset(cfg.data_root)
    ensemble = load_ensemble(sorted((tmp / "out").glob("model.*.bin")))
    split = json.loads((tmp / "out" / "split.json").read_text())
    test_recs = [
        r for r in dataset.recordings
        if r.recording.subject_id in split["test_subjects"]
    ]
    batch = predict_sessions(ensemble, test_recs, cfg.window_spec())
    for labeled, session in zip(
        sorted(test_recs, key=lambda r: r.recording.recording_id), batch
    ):
        result = stream_replay(labeled.recording, ensemble, speed=math.inf)
        assert result.session.tokens == session.tokens
        assert result.counts.counts == count(session).counts


# a tiny two-member ensemble with weights large enough to vary its tokens
_PROPERTY_CFG = ModelConfig(input_dim=3, hidden_dim=4, embed_dim=3, max_decode_len=5)
_PROPERTY_ENSEMBLE = EnsembleModel(_PROPERTY_CFG, [
    (ModelParams(_PROPERTY_CFG, 8.0 * init_params(_PROPERTY_CFG, s).vector),
     NormalizationStats(np.full(3, 0.5), np.full(3, 2.0)))
    for s in (0, 1)
])


@settings(max_examples=20, deadline=None)
@given(rate=st.integers(1, 30), core=st.integers(1, 12), flank=st.integers(0, 5),
       length=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_stream_equals_batch_for_any_geometry(rate, core, flank, length, seed):
    # recordings from 1 frame up to several windows, shorter than one
    # window included; at speed=inf stream decodes in one call, as batch does
    spec = WindowSpec(sample_rate_hz=float(rate), window_s=(core + 2 * flank) / rate,
                      core_s=core / rate, train_slide_s=core / rate)
    assert (spec.core_frames, spec.flank_frames) == (core, flank)
    frames = np.random.default_rng(seed).normal(size=(length, 3))
    recording = IMURecording("s0", "desk", 0, float(rate), frames)
    batch = stitch_windows(decode_windows(_PROPERTY_ENSEMBLE,
                                          make_windows(recording, spec, mode="test")))
    result = stream_replay(recording, _PROPERTY_ENSEMBLE, speed=math.inf, spec=spec)
    assert result.session.tokens == batch.tokens
    assert result.counts.counts == count(batch).counts
    assert len(result.events) == math.ceil(length / core)


def _count_decode_calls(monkeypatch, delay_s=0.0) -> list[list]:
    """Patch the decoder stream_replay calls to record each call's windows."""
    calls = []

    def recording_decode(ensemble, windows):
        calls.append(list(windows))
        time.sleep(delay_s)
        return decode_windows(ensemble, windows)

    monkeypatch.setattr(cli_mod, "decode_windows", recording_decode)
    return calls


def _property_recording(rate, length, seed=3):
    frames = np.random.default_rng(seed).normal(size=(length, 3))
    return IMURecording("s0", "desk", 0, float(rate), frames)


def test_stream_at_inf_decodes_a_recording_in_one_call(monkeypatch):
    spec = WindowSpec(sample_rate_hz=10.0, window_s=1.4, core_s=1.0, train_slide_s=1.0)
    recording = _property_recording(10.0, 95)
    calls = _count_decode_calls(monkeypatch)
    result = stream_replay(recording, _PROPERTY_ENSEMBLE, speed=math.inf, spec=spec)
    windows = make_windows(recording, spec, mode="test")
    assert len(windows) == len(result.events) == 10
    assert [[w.abs_core_start for w in call] for call in calls] == [
        [w.abs_core_start for w in windows]
    ]
    # each window carries an equal share of the one call's seconds
    assert len({e["compute_s"] for e in result.events}) == 1


def test_stream_at_finite_speed_equals_batch(monkeypatch):
    """A decoder slower than one core period makes later calls carry
    several released windows; tokens still equal one batch decode's."""
    spec = WindowSpec(sample_rate_hz=10.0, window_s=1.4, core_s=1.0, train_slide_s=1.0)
    recording = _property_recording(10.0, 95)
    windows = make_windows(recording, spec, mode="test")
    batch = decode_windows(_PROPERTY_ENSEMBLE, windows)
    speed = 10.0  # one core period is 0.1 s of wall time, the replay 0.95 s
    calls = _count_decode_calls(monkeypatch, delay_s=0.25)
    result = stream_replay(recording, _PROPERTY_ENSEMBLE, speed=speed, spec=spec)
    assert max(len(call) for call in calls) >= 2
    assert [w.abs_core_start for call in calls for w in call] == [
        w.abs_core_start for w in windows
    ]
    assert [e["window"] for e in result.events] == list(range(len(windows)))
    assert [e["tokens"] for e in result.events] == [[t.label for t in p.tokens] for p in batch]
    assert result.session.tokens == stitch_windows(batch).tokens
    assert result.counts.counts == count(stitch_windows(batch)).counts


def test_stream_counts_are_those_of_the_stitched_prefix():
    spec = WindowSpec(sample_rate_hz=10.0, window_s=1.4, core_s=1.0, train_slide_s=1.0)
    recording = _property_recording(10.0, 95)
    result = stream_replay(recording, _PROPERTY_ENSEMBLE, speed=math.inf, spec=spec)
    stitched = []
    for event in result.events:
        stitch_append(stitched, [PrimitiveClass.from_label(t) for t in event["tokens"]])
        prefix = SessionPrediction(recording.recording_id, tuple(stitched))
        assert event["counts"] == count(prefix).to_json()
    assert len(stitched) < sum(len(e["tokens"]) for e in result.events)  # some merged


def test_stream_command_uses_config_geometry(tmp_path):
    cfg = mini_config(tmp_path, window_s=8.0, core_s=4.0, max_epochs=1)
    for command in ["synth", "train", "predict"]:
        assert main([command, "--config", str(cfg)]) == 0
    assert main(["stream", "--config", str(cfg), "--speed", "inf"]) == 0
    first = json.loads((tmp_path / "out" / "sequences.jsonl").read_text().splitlines()[0])
    streamed = json.loads((tmp_path / "out" / "stream_report.json").read_text())
    assert streamed["recording"] == first["recording"]
    assert streamed["sequence"] == first["sequence"]
    assert streamed["n_windows"] == math.ceil(30.0 / 4.0)


def test_stream_replay_rejects_bad_speed(pipeline):
    tmp, cfg_path = pipeline
    cfg = load_run_config(str(cfg_path), {})
    dataset = load_dataset(cfg.data_root)
    ensemble = load_ensemble(sorted((tmp / "out").glob("model.*.bin")))
    for speed in (0.0, math.nan):
        with pytest.raises(DataError, match="speed"):
            stream_replay(dataset.recordings[0].recording, ensemble, speed=speed)


def test_stream_nan_speed_exits_1(pipeline, capsys):
    _, cfg_path = pipeline
    assert main(["stream", "--config", str(cfg_path), "--speed", "nan"]) == 1
    assert "error: speed must be positive" in capsys.readouterr().err


def test_stream_replay_rejects_channel_mismatch(pipeline):
    tmp, cfg_path = pipeline
    cfg = load_run_config(str(cfg_path), {})
    ensemble = load_ensemble(sorted((tmp / "out").glob("model.*.bin")))
    bad = load_dataset(cfg.data_root).recordings[0].recording.with_frames(
        np.zeros((600, 3))
    )
    with pytest.raises(DataError, match="channel"):
        stream_replay(bad, ensemble, speed=math.inf)


def test_stream_throttled_lag_bound(pipeline):
    """At 8x real time a window's lag stays near flank + compute."""
    tmp, cfg_path = pipeline
    cfg = load_run_config(str(cfg_path), {})
    dataset = load_dataset(cfg.data_root)
    ensemble = load_ensemble(sorted((tmp / "out").glob("model.*.bin")))
    rec = dataset.recordings[0].recording
    speed = 8.0
    result = stream_replay(rec, ensemble, speed=speed)
    assert result.max_lag_s <= (1.0 + 4.0) / speed + 1.0
    # interior windows wait for their trailing flank
    assert result.events[0]["lag_s"] >= 1.0 / speed
