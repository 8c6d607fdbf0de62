import csv
import dataclasses
import hashlib
import io
import json
import re
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from primcount import dataset
from primcount.dataset import (
    CLASSES,
    KIND_ACCELERATION,
    ChannelDescriptor,
    ChannelManifest,
    ClassSignatureParams,
    DataError,
    IMURecording,
    LabeledRecording,
    PrimitiveClass,
    PrimitiveSegment,
    SubjectInfo,
    SynthSpec,
    SyntheticDataset,
    class_signature,
    load_dataset,
    load_recording,
    save_dataset,
    save_recording,
    schedule_rng,
    schedule_segments,
    sensor_centric_transform,
    split_subjects,
    synthesize_dataset,
    synthetic_manifest,
    validate_tiling,
    _load_frames,
    _load_frames_by_row,
)
from primcount.model import ModelConfig, init_params, save_member
from primcount.preprocess import WindowSpec, fit_normalization, make_windows


def tree_digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in root.rglob("*") if p.is_file()
    }


class TestPrimitiveClass:
    def test_codes_are_stable(self):
        assert [int(c) for c in CLASSES] == [0, 1, 2, 3, 4]
        assert PrimitiveClass.REACH == 0
        assert PrimitiveClass.REPOSITION == 1
        assert PrimitiveClass.TRANSPORT == 2
        assert PrimitiveClass.STABILIZE == 3
        assert PrimitiveClass.IDLE == 4

    def test_label_round_trip(self):
        for c in CLASSES:
            assert PrimitiveClass.from_label(c.label) is c

    def test_unknown_label_rejected(self):
        with pytest.raises(DataError, match="unknown primitive class"):
            PrimitiveClass.from_label("grasp")
        with pytest.raises(DataError, match="unknown primitive class 3"):
            PrimitiveClass.from_label(3)


SHIPPED_MANIFEST = Path(__file__).resolve().parents[1] / "configs" / "manifest.json"


def shipped_manifest():
    return ChannelManifest.from_json(json.loads(SHIPPED_MANIFEST.read_text()))


# sha256 of each file test_written_bytes_are_pinned writes; an edit to
# a writer that changes any byte on disk changes one of these
PINNED_DIGESTS = {
    "data/manifest.json":
        "f94600d22ebc18a4abd959ef0e941062794dd494813366ae2df93e6ae0a7ced5",
    "data/recordings/s00__drill_a__0.csv":
        "61518f1173589d1756870dade5076b30ddadbc11faed84d804faacc68ca58a9b",
    "data/recordings/s00__drill_a__0.labels.json":
        "104b673e4d4d2c8cc31d89658f0f5011c501b67cf0c0a5b9a03678ee4a8b2404",
    "data/recordings/s00__drill_a__0.meta.json":
        "f44ae8c3eeda55aa551607cbc8aac292ccb4f6787272393a962835d7dc590041",
    "data/recordings/s00__drill_a__0.npy":
        "760f21a2330ce2bd8acc2c2ea384d80d304c51d385c366625d92cb9cb8eb0af1",
    "data/recordings/s01__drill_a__0.csv":
        "e78e3904cb14f640b7c4ceaaf700a1b153bf2258afffea5ca4f53c4b0143b239",
    "data/recordings/s01__drill_a__0.labels.json":
        "38ce85d6b144a64eb077fbaf0b442a6a4460b4194e3b4819dff8cb2c4a7cccc6",
    "data/recordings/s01__drill_a__0.meta.json":
        "e4e5a4ad78a31416e27a873fdd761f9e47b6f78867e6d43dfd7a88ceac161ad8",
    "data/recordings/s01__drill_a__0.npy":
        "be5b900c3c2e8f4d07e57062aba2574967c18ca63187f2c949aef7a62201ae51",
    "data/subjects.json":
        "cac9ab4caa36aa48c7196dfd83deabc085c561e418e94efad2023e937319f268",
    "model.0.bin":
        "f6e048e3bb9411b6db8524351e713fded66df618a3b8b8c3f3c69063fdcfd81f",
}


class TestManifest:
    def test_default_manifest_has_77_channels(self):
        m = shipped_manifest()
        assert m.channel_count == 77
        kinds = [c.kind for c in m.channels]
        assert kinds.count("acceleration") == 27
        assert kinds.count("quaternion-component") == 28
        assert kinds.count("joint-angle") == 22

    def test_quaternion_groups_are_contiguous_fours(self):
        m = shipped_manifest()
        groups = m.quaternion_groups()
        assert len(groups) == 7
        for start in groups:
            sensors = {m.channels[start + k].sensor for k in range(4)}
            assert len(sensors) == 1

    def test_broken_quaternion_group_rejected(self):
        channels = (
            ChannelDescriptor("a", "s0", "quaternion-component", "1"),
            ChannelDescriptor("b", "s0", "quaternion-component", "1"),
            ChannelDescriptor("c", "s0", "quaternion-component", "1"),
        )
        with pytest.raises(DataError, match="group of 3"):
            ChannelManifest(channels)

    @staticmethod
    def layout(spec: str) -> tuple[ChannelDescriptor, ...]:
        kinds = {"a": "acceleration", "q": "quaternion-component", "j": "joint-angle"}
        return tuple(ChannelDescriptor(f"c{i}", sensor, kinds[kind], "1")
                     for i, (kind, sensor) in enumerate(w.split(":") for w in spec.split()))

    @pytest.mark.parametrize("spec, groups", [
        ("a:s0 q:s0 q:s0 q:s0 q:s0 a:s0", (1,)),
        ("q:s0 q:s0 q:s0 q:s0 q:s1 q:s1 q:s1 q:s1", (0, 4)),
        ("j:s0 q:s1 q:s1 q:s1 q:s1 a:s1 q:s1 q:s1 q:s1 q:s1", (1, 6)),
    ])
    def test_quaternion_runs_split_by_kind_and_sensor(self, spec, groups):
        assert ChannelManifest(self.layout(spec)).quaternion_groups() == groups

    @pytest.mark.parametrize("spec, message", [
        ("q:s0 q:s0 a:s0 q:s0 q:s0", "'s0' at column 0 form a group of 2"),
        ("q:s0 q:s0 q:s0 q:s0 q:s1 q:s1 q:s1", "'s1' at column 4 form a group of 3"),
        ("a:s2 q:s2 q:s2 q:s2 q:s2 q:s2", "'s2' at column 1 form a group of 5"),
    ])
    def test_first_bad_quaternion_run_is_named(self, spec, message):
        with pytest.raises(DataError, match=message):
            ChannelManifest(self.layout(spec))

    def test_json_round_trip(self):
        m = shipped_manifest()
        assert ChannelManifest.from_json(m.to_json()) == m


class TestRecordingValidation:
    def test_non_finite_frames_rejected(self):
        frames = np.zeros((10, 3))
        frames[4, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            IMURecording("s00", "a", 0, 100.0, frames)

    @pytest.mark.parametrize("rate", [0.0, -50.0, float("nan"), float("inf")])
    def test_sample_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(DataError, match="sample rate must be finite and positive"):
            IMURecording("s00", "a", 0, rate, np.zeros((10, 3)))

    def test_frames_are_read_only(self):
        rec = IMURecording("s00", "a", 0, 100.0, np.zeros((10, 3)))
        with pytest.raises(ValueError):
            rec.frames[0, 0] = 1.0

    def test_frames_do_not_alias_the_callers_array(self):
        own = np.zeros((1000, 3))
        IMURecording("s00", "a", 0, 100.0, own)
        assert own.flags.writeable
        big = np.zeros((1000, 5))
        rec = IMURecording("s00", "a", 0, 100.0, big[:, :3])
        w = make_windows(rec, WindowSpec(sample_rate_hz=100.0), mode="test")[1]
        assert np.shares_memory(w.frames, rec.frames)
        big[w.start_frame, 0] = 99.0
        assert w.frames[0, 0] == 0.0 and rec.frames[w.start_frame, 0] == 0.0

    def test_channel_count_must_match_manifest(self):
        rec = IMURecording("s00", "a", 0, 100.0, np.zeros((10, 3)))
        with pytest.raises(DataError, match="dimensionality mismatch"):
            sensor_centric_transform(rec, synthetic_manifest(4))

    def test_segment_span_must_be_nonempty(self):
        with pytest.raises(DataError, match="invalid segment span"):
            PrimitiveSegment(5, 5, PrimitiveClass.REACH)

    def test_tiling_rejects_overlap_gap_and_misalignment(self):
        r = PrimitiveClass.REACH
        with pytest.raises(DataError, match="overlapping segments"):
            validate_tiling(
                [PrimitiveSegment(0, 6, r), PrimitiveSegment(4, 10, r)], 10
            )
        with pytest.raises(DataError, match="gap between segments"):
            validate_tiling(
                [PrimitiveSegment(0, 4, r), PrimitiveSegment(6, 10, r)], 10
            )
        with pytest.raises(DataError, match="expected 0"):
            validate_tiling([PrimitiveSegment(2, 10, r)], 10)
        with pytest.raises(DataError, match="recording has 12"):
            validate_tiling([PrimitiveSegment(0, 10, r)], 12)

    def test_labeled_recording_sorts_segments(self):
        rec = IMURecording("s00", "a", 0, 100.0, np.zeros((10, 2)))
        labeled = LabeledRecording(
            rec,
            [
                PrimitiveSegment(6, 10, PrimitiveClass.IDLE),
                PrimitiveSegment(0, 6, PrimitiveClass.REACH),
            ],
        )
        assert labeled.class_sequence() == (
            PrimitiveClass.REACH,
            PrimitiveClass.IDLE,
        )
        counts = labeled.true_counts()
        assert counts[PrimitiveClass.REACH] == 1
        assert counts[PrimitiveClass.TRANSPORT] == 0

    def test_true_counts_cover_every_class_in_order(self):
        r, i = PrimitiveClass.REACH, PrimitiveClass.IDLE
        segments = [PrimitiveSegment(0, 3, i), PrimitiveSegment(3, 5, r), PrimitiveSegment(5, 9, i)]
        labeled = LabeledRecording(IMURecording("s00", "a", 0, 100.0, np.zeros((9, 2))), segments)
        assert list(labeled.true_counts().items()) == [(c, {r: 1, i: 2}.get(c, 0)) for c in CLASSES]


class TestFileIO:
    def test_round_trip_preserves_everything(self, tmp_path):
        spec = SynthSpec(n_subjects=1, trials_per_subject=1, duration_s=4.0,
                         sample_rate_hz=50.0, n_channels=5)
        ds = synthesize_dataset(spec, seed=3)
        labeled = ds.recordings[0]
        frames_path = save_recording(labeled, tmp_path, ds.manifest)
        loaded = load_recording(
            frames_path, frames_path.with_suffix(".labels.json"), ds.manifest
        )
        np.testing.assert_array_equal(loaded.recording.frames, labeled.recording.frames)
        assert loaded.segments == labeled.segments
        assert loaded.recording.subject_id == "s00"
        assert loaded.recording.sample_rate_hz == 50.0

    def test_quaternion_groups_load_sensor_centric_and_stay_raw_on_disk(self, tmp_path):
        manifest = shipped_manifest()
        rng = np.random.default_rng(4)
        raw = [
            LabeledRecording(
                IMURecording(f"s0{i}", "drill_a", 0, 100.0, rng.normal(size=(300, 77)) * 3.0),
                [PrimitiveSegment(0, 300, PrimitiveClass.REACH)],
            )
            for i in range(2)
        ]
        subjects = {f"s0{i}": SubjectInfo(f"s0{i}", "left", 30) for i in range(2)}
        save_dataset(SyntheticDataset(raw, subjects, manifest), tmp_path)
        loaded = load_dataset(tmp_path)
        for written, got in zip(raw, loaded.recordings):
            frames = got.recording.frames
            expected = sensor_centric_transform(written.recording, manifest).frames
            np.testing.assert_array_equal(frames, expected)
            for start in manifest.quaternion_groups():
                np.testing.assert_allclose(frames[0, start : start + 4], [1, 0, 0, 0], atol=1e-12)
            stem = tmp_path / "recordings" / f"{written.recording.subject_id}__drill_a__0"
            on_disk = [np.load(stem.with_suffix(".npy")), _load_frames_by_row(stem.with_suffix(".csv"), 77)]
            for array in on_disk:
                np.testing.assert_array_equal(array, written.recording.frames)

    def test_wrong_channel_count_is_a_distinct_error(self, tmp_path):
        spec = SynthSpec(n_subjects=1, trials_per_subject=1, duration_s=2.0,
                         sample_rate_hz=50.0, n_channels=5)
        ds = synthesize_dataset(spec, seed=3)
        frames_path = save_recording(ds.recordings[0], tmp_path, ds.manifest)
        with pytest.raises(DataError, match="dimensionality mismatch"):
            load_recording(
                frames_path,
                frames_path.with_suffix(".labels.json"),
                synthetic_manifest(6),
            )

    def test_overlapping_labels_are_a_distinct_error(self, tmp_path):
        spec = SynthSpec(n_subjects=1, trials_per_subject=1, duration_s=2.0,
                         sample_rate_hz=50.0, n_channels=5)
        ds = synthesize_dataset(spec, seed=3)
        frames_path = save_recording(ds.recordings[0], tmp_path, ds.manifest)
        labels_path = frames_path.with_suffix(".labels.json")
        labels_path.write_text(json.dumps([
            {"class": "reach", "start": 0, "end": 60},
            {"class": "idle", "start": 50, "end": 100},
        ]))
        with pytest.raises(DataError, match="overlapping segments"):
            load_recording(frames_path, labels_path, ds.manifest)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("sample_rate_hz"), "missing field 'sample_rate_hz'"),
        (lambda m: m.update(sample_rate_hz="fast"), "sample_rate_hz 'fast' is not a number"),
        (lambda m: m.update(sample_rate_hz=True), "sample_rate_hz True is not a number"),
        (lambda m: m.update(trial="first"), "trial 'first' is not an integer"),
        ("{\"subject_id\": ", "parse failure"),
        ("[1, 2]", "must hold a JSON object"),
        (lambda m: m.update(sample_rate_hz=float("nan")), "sample_rate_hz nan is not finite and positive"),
        (lambda m: m.update(sample_rate_hz=float("inf")), "sample_rate_hz inf is not finite and positive"),
        ('{"subject_id": "s00", "activity": "a", "trial": 0, "sample_rate_hz": 1e400}',
         "sample_rate_hz inf is not finite and positive"),
        (lambda m: m.update(sample_rate_hz=0), "sample_rate_hz 0 is not finite and positive"),
    ])
    def test_malformed_metadata_is_an_error(self, tmp_path, edit, message):
        spec = SynthSpec(n_subjects=1, trials_per_subject=1, duration_s=2.0,
                         sample_rate_hz=50.0, n_channels=5)
        ds = synthesize_dataset(spec, seed=3)
        frames_path = save_recording(ds.recordings[0], tmp_path, ds.manifest)
        meta_path = frames_path.with_suffix(".meta.json")
        if isinstance(edit, str):
            meta_path.write_text(edit)
        else:
            meta = json.loads(meta_path.read_text())
            edit(meta)
            meta_path.write_text(json.dumps(meta))
        with pytest.raises(DataError, match=message) as info:
            load_recording(
                frames_path, frames_path.with_suffix(".labels.json"), ds.manifest
            )
        assert str(info.value).startswith(f"{meta_path}: ")

    def test_garbled_csv_is_a_parse_error(self, tmp_path):
        spec = SynthSpec(n_subjects=1, trials_per_subject=1, duration_s=2.0,
                         sample_rate_hz=50.0, n_channels=5)
        ds = synthesize_dataset(spec, seed=3)
        frames_path = save_recording(ds.recordings[0], tmp_path, ds.manifest)
        lines = frames_path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[2] = "oops"
        lines[3] = ",".join(fields)
        frames_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="parse failure"):
            load_recording(
                frames_path, frames_path.with_suffix(".labels.json"), ds.manifest
            )

    def test_dataset_directory_round_trip(self, tmp_path):
        spec = SynthSpec(n_subjects=2, trials_per_subject=2, duration_s=3.0,
                         sample_rate_hz=40.0, n_channels=6)
        ds = synthesize_dataset(spec, seed=11)
        save_dataset(ds, tmp_path / "data")
        loaded = load_dataset(tmp_path / "data")
        assert loaded.manifest == ds.manifest
        assert loaded.subjects == ds.subjects
        assert len(loaded.recordings) == 4
        by_id = {r.recording_id: r for r in loaded.recordings}
        for orig in ds.recordings:
            got = by_id[orig.recording_id]
            np.testing.assert_array_equal(got.recording.frames, orig.recording.frames)
            assert got.segments == orig.segments

    def test_written_bytes_are_pinned(self, tmp_path):
        # every file save_dataset and save_member write for a fixed tiny
        # dataset and member, down to key order, float repr and .npy header
        spec = SynthSpec(n_subjects=2, trials_per_subject=1, duration_s=2.0,
                         sample_rate_hz=10.0, n_channels=3)
        ds = synthesize_dataset(spec, seed=7)
        save_dataset(ds, tmp_path / "data")
        stats = fit_normalization([r.recording for r in ds.recordings])
        params = init_params(ModelConfig(input_dim=3, hidden_dim=2, embed_dim=2), seed=7)
        save_member(tmp_path / "model.0.bin", params, stats)
        digests = {
            p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.rglob("*") if p.is_file()
        }
        assert digests == PINNED_DIGESTS

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_writer_count_changes_no_byte(self, tmp_path, monkeypatch, cpus):
        import os

        from primcount import parallel

        monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
        spec = SynthSpec(n_subjects=2, trials_per_subject=1, duration_s=2.0,
                         sample_rate_hz=10.0, n_channels=3)
        save_dataset(synthesize_dataset(spec, seed=7), tmp_path / "data")
        assert tree_digests(tmp_path / "data") == {
            k.removeprefix("data/"): v for k, v in PINNED_DIGESTS.items() if k.startswith("data/")
        }

        # five recordings: min(5, cpus) forked writers, each a round-robin share
        pids = tmp_path / "pids"
        original = dataset.save_recording

        def logged(labeled, *args):
            with open(pids, "a") as fh:
                fh.write(f"{labeled.recording_id} {os.getpid()}\n")
            return original(labeled, *args)

        monkeypatch.setattr(dataset, "save_recording", logged)
        ds = synthesize_dataset(dataclasses.replace(spec, n_subjects=5), seed=7)
        save_dataset(ds, tmp_path / "five")
        log = [line.split() for line in pids.read_text().splitlines()]
        assert sorted(rid for rid, _ in log) == sorted(r.recording_id for r in ds.recordings)
        writers = {pid for _, pid in log}
        assert len(writers) == min(5, cpus)
        assert str(os.getpid()) not in writers
        serial = tmp_path / "serial"
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        save_dataset(ds, serial)
        assert tree_digests(tmp_path / "five") == tree_digests(serial)

    def test_header_only_frames_file(self, tmp_path):
        spec = SynthSpec(n_subjects=1, trials_per_subject=1, duration_s=2.0,
                         sample_rate_hz=50.0, n_channels=5)
        ds = synthesize_dataset(spec, seed=3)
        frames_path = save_recording(ds.recordings[0], tmp_path, ds.manifest)
        header = frames_path.read_text().splitlines()[0]
        frames_path.write_text(header + "\n")
        with pytest.raises(DataError, match=re.escape(f"{frames_path}: no frames")):
            load_recording(
                frames_path, frames_path.with_suffix(".labels.json"), ds.manifest
            )

    @pytest.mark.parametrize("name, edit, message", [
        ("manifest.json", lambda text: "{}", "manifest file must hold a JSON array"),
        ("manifest.json", lambda text: '[{"name": "a"}]', "malformed manifest entry: 'sensor'"),
        ("subjects.json", lambda text: "[]", "subjects file must hold a JSON object"),
        ("subjects.json", lambda text: text.replace('"ue_fma_score": 31', '"ue_fma_score": 99'),
         "malformed subject 's00': impairment score 99"),
        ("subjects.json", lambda text: json.dumps({"s00": json.loads(text)["s00"]}),
         "no entry for the subject of s01/drill_a/0"),
    ], ids=["manifest-object", "manifest-entry", "subjects-array", "score-out-of-range",
            "subject-missing"])
    def test_malformed_dataset_file_names_the_file(self, tmp_path, name, edit, message):
        spec = SynthSpec(n_subjects=2, trials_per_subject=1, duration_s=2.0,
                         sample_rate_hz=40.0, n_channels=6)
        ds = synthesize_dataset(spec, seed=11)
        save_dataset(ds, tmp_path / "data")
        path = tmp_path / "data" / name
        text = path.read_text()
        edited = edit(text)
        assert edited != text
        path.write_text(edited)
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load_dataset(tmp_path / "data")

    def test_two_files_of_one_recording_are_rejected(self, tmp_path):
        # a copy under another stem used to load as a second recording of s00
        spec = SynthSpec(n_subjects=2, trials_per_subject=1, duration_s=2.0,
                         sample_rate_hz=40.0, n_channels=6)
        save_dataset(synthesize_dataset(spec, seed=11), tmp_path / "data")
        rec_dir = tmp_path / "data" / "recordings"
        for src in sorted(rec_dir.glob("s00__drill_a__0.*")):
            shutil.copy(src, rec_dir / src.name.replace("s00__drill_a__0", "zz_copy"))
        first, second = rec_dir / "s00__drill_a__0.csv", rec_dir / "zz_copy.csv"
        with pytest.raises(DataError, match=re.escape(
                f"{first} and {second} both hold recording s00/drill_a/0")):
            load_dataset(tmp_path / "data")

    def test_writer_matches_csv_writer(self, tmp_path):
        manifest = ChannelManifest((
            ChannelDescriptor("acc,x", "s0", KIND_ACCELERATION, "g"),
            ChannelDescriptor('acc "y"', "s0", KIND_ACCELERATION, "g"),
            ChannelDescriptor("acc_z", "s0", KIND_ACCELERATION, "g"),
        ))
        frames = np.random.default_rng(4).standard_normal((40, 3)) * 1e3
        frames[0] = [-0.0, 5e-324, 1.7976931348623157e308]
        frames[1] = [0.1, -1e-300, 123456789.0]
        recording = IMURecording("s00", "desk", 0, 30.0, frames)
        labeled = LabeledRecording(recording, [PrimitiveSegment(0, 40, PrimitiveClass.REACH)])
        frames_path = save_recording(labeled, tmp_path, manifest)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["t", *manifest.names])
        for i, row in enumerate(recording.frames):
            writer.writerow([repr(i / 30.0), *(repr(float(v)) for v in row)])
        assert frames_path.read_bytes() == expected.getvalue().encode("utf-8")
        assert frames_path.read_text().startswith('t,"acc,x","acc ""y""",acc_z\n')
        loaded = _load_frames(frames_path, manifest)
        assert loaded.tobytes() == recording.frames.tobytes()


def _frames_file(rows: list[str], end: str = "\n", header: str = "t,a,b,c") -> str:
    return end.join([header, *rows]) + end


_ROWS = ["0.0,1.5,-2.25,3.0", "0.01,0.5,0.25,-1.0", "0.02,4.0,5.0,6.0"]


def _with_row(row: str) -> str:
    return _frames_file([_ROWS[0], row, _ROWS[2]])


def _random_round_trip() -> str:
    values = np.random.default_rng(9).standard_normal((50, 3)) * 10.0 ** np.arange(-3, 3, 2)
    values[0] = [-0.0, 5e-324, 1.7976931348623157e308]
    values[1] = [-5e-324, -1.7976931348623157e308, 2.2250738585072014e-308]
    return _frames_file([
        ",".join(map(repr, (i / 100.0, *row.tolist()))) for i, row in enumerate(values)
    ])


# name -> (file text, whether the bulk parse must take it without the row loop)
_FRAMES_CASES = {
    "plain": (_frames_file(_ROWS), True),
    "short-row": (_with_row("0.01,0.5,0.25"), False),
    "long-row": (_with_row("0.01,0.5,0.25,-1.0,2.0"), False),
    "blank-line": (_frames_file([_ROWS[0], "", *_ROWS[1:]]), False),
    "trailing-blank-line": (_frames_file(_ROWS) + "\n", False),
    "comment-row": (_with_row("#0.01,0.5,0.25,-1.0"), False),
    "quoted-value": (_with_row('0.01,"0.5",0.25,-1.0'), False),
    "underscore-digits": (_with_row("0.01,1_0,0.25,-1.0"), False),
    "empty-field": (_with_row("0.01,,0.25,-1.0"), False),
    "hex-value": (_with_row("0.01,0x10,0.25,-1.0"), False),
    "nan": (_with_row("0.01,nan,0.25,-1.0"), True),
    "inf": (_with_row("0.01,0.5,-inf,-1.0"), True),
    "non-numeric-t": (_with_row("later,0.5,0.25,-1.0"), False),
    "empty-t": (_with_row(",0.5,0.25,-1.0"), False),
    "inf-t": (_with_row("inf,0.5,0.25,-1.0"), True),
    "all-lines-blank": (_frames_file([""]), False),
    "crlf": (_frames_file(_ROWS, end="\r\n"), True),
    "no-trailing-newline": (_frames_file(_ROWS)[:-1], True),
    "extra-spaces": (_with_row("0.01, 0.5 ,0.25 ,  -1.0"), False),
    "header-only": (_frames_file([]), False),
    "wrong-header": (_frames_file(_ROWS, header="time,a,b,c"), False),
    "random-round-trip": (_random_round_trip(), True),
}


def _outcome(load):
    try:
        frames = load()
    except DataError as exc:
        return ("error", str(exc))
    return ("frames", frames.dtype, frames.shape, frames.flags.c_contiguous, frames.tobytes())


class TestFramesLoader:
    MANIFEST = synthetic_manifest(3)

    @pytest.mark.parametrize("name", list(_FRAMES_CASES))
    def test_bulk_parse_matches_row_loop(self, tmp_path, monkeypatch, name):
        text, bulk = _FRAMES_CASES[name]
        path = tmp_path / "frames.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(lambda: _load_frames_by_row(path, 3))
        if bulk:
            def row_loop_not_expected(*args):
                raise AssertionError("bulk parse fell back to the row loop")
            monkeypatch.setattr(dataset, "_load_frames_by_row", row_loop_not_expected)
        assert _outcome(lambda: _load_frames(path, self.MANIFEST)) == expected

    def test_row_loop_reference_outcomes(self, tmp_path):
        """What the reference accepts and rejects, so the comparison is not vacuous."""
        messages = {}
        for name, (text, _) in _FRAMES_CASES.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                frames = _load_frames_by_row(path, 3)
            except DataError as exc:
                messages[name] = str(exc).removeprefix(str(path))
                continue
            assert frames.shape[1] == 3
            if name == "quoted-value":
                assert frames[1].tolist() == [0.5, 0.25, -1.0]
            if name == "underscore-digits":
                assert frames[1, 0] == 10.0
        mismatch = ":{}: dimensionality mismatch: row has {} values, manifest declares 3"
        not_a_float = ":3: parse failure: could not convert string to float: {!r}"
        assert messages == {
            "short-row": mismatch.format(3, 2),
            "long-row": mismatch.format(3, 4),
            "blank-line": ":3: blank line",
            "trailing-blank-line": ":5: blank line",
            "all-lines-blank": ":2: blank line",
            "comment-row": not_a_float.format("#0.01"),
            "empty-field": not_a_float.format(""),
            "hex-value": not_a_float.format("0x10"),
            "non-numeric-t": not_a_float.format("later"),
            "empty-t": not_a_float.format(""),
            "nan": ": non-finite value in frames",
            "inf": ": non-finite value in frames",
            "header-only": ": no frames",
            "wrong-header": ": first header column must be 't', got 'time'",
        }

    def test_all_blank_data_lines_warn_nothing(self, tmp_path, recwarn):
        path = tmp_path / "frames.csv"
        path.write_text("t,a,b,c\n\n")
        with pytest.raises(DataError, match=r":2: blank line"):
            _load_frames(path, self.MANIFEST)
        assert [str(w.message) for w in recwarn] == []

    def test_memory_bounded_by_frames(self, tmp_path):
        manifest = synthetic_manifest(77)
        frames = np.random.default_rng(2).standard_normal((2000, 77))
        recording = IMURecording("s00", "desk", 0, 100.0, frames)
        labeled = LabeledRecording(recording, [PrimitiveSegment(0, 2000, PrimitiveClass.IDLE)])
        frames_path = save_recording(labeled, tmp_path, manifest)
        frames_path.with_suffix(".npy").unlink()  # measure the CSV parse
        tracemalloc.start()
        try:
            loaded = _load_frames(frames_path, manifest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.tobytes() == frames.tobytes()
        assert peak <= 2.5 * frames.nbytes, peak / frames.nbytes


def _sidecar_recording(directory: Path, frames: np.ndarray) -> tuple[Path, ChannelManifest]:
    manifest = synthetic_manifest(frames.shape[1])
    recording = IMURecording("s00", "desk", 0, 100.0, frames)
    labeled = LabeledRecording(recording, [PrimitiveSegment(0, len(frames), PrimitiveClass.IDLE)])
    return save_recording(labeled, directory, manifest), manifest


def _edit_meta(frames_path: Path, edit) -> None:
    meta_path = frames_path.with_suffix(".meta.json")
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))


def _reseal(frames_path: Path) -> None:
    """Record the current CSV and .npy digests, as if the writer had made them."""
    record = {
        "csv_bytes": frames_path.stat().st_size,
        "csv_sha256": hashlib.sha256(frames_path.read_bytes()).hexdigest(),
        "npy_sha256": hashlib.sha256(frames_path.with_suffix(".npy").read_bytes()).hexdigest(),
    }
    _edit_meta(frames_path, lambda meta: meta.update(frames_sidecar=record))


def _resave_npy(frames_path: Path, array) -> None:
    np.save(frames_path.with_suffix(".npy"), array, allow_pickle=True)
    _reseal(frames_path)


def _flip_last_npy_byte(frames_path: Path) -> None:
    npy = frames_path.with_suffix(".npy")
    data = bytearray(npy.read_bytes())
    data[-1] ^= 1
    npy.write_bytes(bytes(data))


# name -> edit after save_recording that must send the load to the CSV parse
_STALE_SIDECARS = {
    "npy-tampered": _flip_last_npy_byte,
    "npy-truncated": lambda p: p.with_suffix(".npy").write_bytes(p.with_suffix(".npy").read_bytes()[:-8]),
    "npy-deleted": lambda p: p.with_suffix(".npy").unlink(),
    "no-record": lambda p: _edit_meta(p, lambda m: m.pop("frames_sidecar")),
    "record-not-object": lambda p: _edit_meta(p, lambda m: m.update(frames_sidecar=[1, 2])),
    "record-missing-digest": lambda p: _edit_meta(p, lambda m: m["frames_sidecar"].pop("npy_sha256")),
    "record-size-as-text": lambda p: _edit_meta(
        p, lambda m: m["frames_sidecar"].update(csv_bytes=str(m["frames_sidecar"]["csv_bytes"]))
    ),
    "npy-float32": lambda p: _resave_npy(p, np.load(p.with_suffix(".npy")).astype(np.float32)),
    "npy-wrong-width": lambda p: _resave_npy(p, np.load(p.with_suffix(".npy"))[:, :-1]),
    "npy-1d": lambda p: _resave_npy(p, np.load(p.with_suffix(".npy")).ravel()),
    "npy-pickled": lambda p: _resave_npy(p, np.array([{"a": 1}], dtype=object)),
    "npy-not-npy": lambda p: (p.with_suffix(".npy").write_bytes(b"not an array"), _reseal(p)),
    "npy-empty": lambda p: (p.with_suffix(".npy").write_bytes(b""), _reseal(p)),
}


class TestFramesSidecar:
    @pytest.fixture
    def no_parse(self, monkeypatch):
        """Fail every CSV parse, so a load can only come from the sidecar."""
        def parse_not_expected(*args, **kwargs):
            raise AssertionError("CSV parsed although the sidecar is current")
        monkeypatch.setattr(np, "loadtxt", parse_not_expected)
        monkeypatch.setattr(dataset, "_load_frames_by_row", parse_not_expected)

    @pytest.fixture
    def parses(self, monkeypatch):
        """Paths the bulk CSV parse was called on."""
        calls, loadtxt = [], np.loadtxt

        def counted(path, *args, **kwargs):
            calls.append(path)
            return loadtxt(path, *args, **kwargs)
        monkeypatch.setattr(np, "loadtxt", counted)
        return calls

    def test_round_trip_reads_sidecar_bitwise(self, tmp_path, no_parse):
        frames = np.random.default_rng(5).standard_normal((300, 6)) * 10.0 ** np.arange(-6, 6, 2)
        frames[0] = [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -0.0, 0.0]
        frames_path, manifest = _sidecar_recording(tmp_path, frames)
        loaded = load_recording(frames_path, frames_path.with_suffix(".labels.json"), manifest)
        assert loaded.recording.frames.tobytes() == frames.tobytes()
        assert loaded.recording.frames.tobytes() == _load_frames_by_row(frames_path, 6).tobytes()
        meta = json.loads(frames_path.with_suffix(".meta.json").read_text())
        got = _load_frames(frames_path, manifest, meta["frames_sidecar"])
        assert (got.dtype, got.flags.c_contiguous) == (np.float64, True)

    def test_same_size_csv_edit_loads_the_edit(self, tmp_path, parses):
        frames = np.random.default_rng(6).standard_normal((20, 4))
        frames_path, manifest = _sidecar_recording(tmp_path, frames)
        lines = frames_path.read_text().splitlines(keepends=True)
        fields = lines[2].split(",")
        field = fields[3]
        k = next(i for i, ch in enumerate(field) if ch in "12345678" and i > 2)
        fields[3] = field[:k] + str(int(field[k]) + 1) + field[k + 1:]
        lines[2] = ",".join(fields)
        size = frames_path.stat().st_size
        frames_path.write_text("".join(lines))
        assert frames_path.stat().st_size == size
        loaded = load_recording(frames_path, frames_path.with_suffix(".labels.json"), manifest)
        expected = frames.copy()
        expected[1, 2] = float(fields[3])
        assert expected[1, 2] != frames[1, 2]
        assert loaded.recording.frames.tobytes() == expected.tobytes()
        assert parses == [frames_path]

    @pytest.mark.parametrize("name", list(_STALE_SIDECARS))
    def test_stale_sidecar_falls_back_to_csv(self, tmp_path, parses, name):
        frames = np.random.default_rng(7).standard_normal((30, 4))
        frames_path, manifest = _sidecar_recording(tmp_path, frames)
        _STALE_SIDECARS[name](frames_path)
        loaded = load_recording(frames_path, frames_path.with_suffix(".labels.json"), manifest)
        assert loaded.recording.frames.tobytes() == frames.tobytes()
        assert parses == [frames_path]

    def test_header_mismatch_beats_a_current_sidecar(self, tmp_path, no_parse):
        frames_path, _ = _sidecar_recording(tmp_path, np.zeros((10, 5)))
        with pytest.raises(DataError, match="dimensionality mismatch in header: 5 channels"):
            load_recording(
                frames_path, frames_path.with_suffix(".labels.json"), synthetic_manifest(6)
            )

    def test_non_finite_sidecar_is_the_csv_error(self, tmp_path, no_parse):
        frames_path, manifest = _sidecar_recording(tmp_path, np.ones((10, 3)))
        frames_path.write_text(frames_path.read_text().replace("1.0", "nan", 1))
        bad = np.ones((10, 3))
        bad[0, 0] = np.nan
        _resave_npy(frames_path, bad)
        with pytest.raises(DataError) as from_csv:
            _load_frames_by_row(frames_path, 3)  # the module's own, not the stub
        with pytest.raises(DataError) as from_sidecar:
            load_recording(frames_path, frames_path.with_suffix(".labels.json"), manifest)
        assert str(from_sidecar.value) == str(from_csv.value) == f"{frames_path}: non-finite value in frames"

    def test_memory_bounded_by_frames(self, tmp_path, no_parse):
        frames = np.random.default_rng(2).standard_normal((2000, 77))
        frames_path, manifest = _sidecar_recording(tmp_path, frames)
        sidecar = json.loads(frames_path.with_suffix(".meta.json").read_text())["frames_sidecar"]
        tracemalloc.start()
        try:
            loaded = _load_frames(frames_path, manifest, sidecar)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.tobytes() == frames.tobytes()
        assert peak <= 1.25 * frames.nbytes, peak / frames.nbytes

    def test_load_writes_nothing(self, tmp_path):
        spec = SynthSpec(n_subjects=2, trials_per_subject=1, duration_s=2.0,
                         sample_rate_hz=40.0, n_channels=6)
        save_dataset(synthesize_dataset(spec, seed=11), tmp_path)

        def tree():
            return {
                str(p.relative_to(tmp_path)): (p.read_bytes(), p.stat().st_mtime_ns)
                for p in sorted(tmp_path.rglob("*")) if p.is_file()
            }
        before = tree()
        assert sum(name.endswith(".npy") for name in before) == 2
        load_dataset(tmp_path)
        assert tree() == before
        for path in tmp_path.rglob("*.npy"):
            path.unlink()  # deleting sidecars is safe, and loading does not remake them
        before = tree()
        load_dataset(tmp_path)
        assert tree() == before


class TestScheduler:
    def test_tiles_exactly_and_never_repeats_class(self):
        ranges = {c: (10, 30) for c in CLASSES}
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(15, 500))
            segs = schedule_segments(n, ranges, np.random.default_rng(rng.integers(2**32)))
            validate_tiling(segs, n)
            for a, b in zip(segs, segs[1:]):
                assert a.cls != b.cls

    def test_no_sliver_segments(self):
        # every segment respects its class minimum unless it is the only one
        ranges = {c: (10, 30) for c in CLASSES}
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(25, 400))
            segs = schedule_segments(n, ranges, np.random.default_rng(rng.integers(2**32)))
            for s in segs:
                assert s.length >= 10

    def test_deterministic_given_stream(self):
        ranges = {c: (10, 30) for c in CLASSES}
        a = schedule_segments(400, ranges, schedule_rng(5, 1, 2))
        b = schedule_segments(400, ranges, schedule_rng(5, 1, 2))
        assert a == b


class TestSignature:
    def test_offsets_select_channels_by_residue(self):
        params = SynthSpec().signature
        for cls in CLASSES:
            sig = class_signature(cls, 40, 12, 100.0, params)
            mean = sig.mean(axis=0)
            hot = np.arange(12) % 5 == int(cls)
            assert mean[hot].min() > 0.5
            assert np.abs(mean[~hot]).max() < 0.5

    def test_segments_of_same_class_share_phase(self):
        params = SynthSpec().signature
        a = class_signature(PrimitiveClass.IDLE, 30, 8, 100.0, params)
        b = class_signature(PrimitiveClass.IDLE, 50, 8, 100.0, params)
        np.testing.assert_allclose(a, b[:30])


class TestSynthesize:
    def test_shapes_and_determinism(self):
        spec = SynthSpec(n_subjects=3, trials_per_subject=2, duration_s=5.0,
                         sample_rate_hz=50.0, n_channels=7)
        a = synthesize_dataset(spec, seed=9)
        b = synthesize_dataset(spec, seed=9)
        assert len(a.recordings) == 6
        assert len(a.subjects) == 3
        for ra, rb in zip(a.recordings, b.recordings):
            np.testing.assert_array_equal(ra.recording.frames, rb.recording.frames)
            assert ra.segments == rb.segments
            assert ra.recording.frames.shape == (250, 7)

    def test_different_seeds_differ(self):
        spec = SynthSpec(n_subjects=1, trials_per_subject=1, duration_s=5.0,
                         sample_rate_hz=50.0, n_channels=7)
        a = synthesize_dataset(spec, seed=1)
        b = synthesize_dataset(spec, seed=2)
        assert not np.array_equal(
            a.recordings[0].recording.frames, b.recordings[0].recording.frames
        )

    def test_noise_free_frames_match_signature_exactly(self):
        spec = SynthSpec(
            n_subjects=1, trials_per_subject=1, duration_s=5.0,
            sample_rate_hz=50.0, n_channels=7,
            signature=ClassSignatureParams(noise_std=0.0),
        )
        ds = synthesize_dataset(spec, seed=4)
        labeled = ds.recordings[0]
        for seg in labeled.segments:
            expected = class_signature(seg.cls, seg.length, 7, 50.0, spec.signature)
            np.testing.assert_allclose(
                labeled.recording.frames[seg.start:seg.end], expected
            )


class TestSplit:
    def test_partition_and_balance(self):
        subjects = [f"s{i:02d}" for i in range(33)]
        splits = split_subjects(subjects, n_folds=4, seed=0)
        assert len(splits) == 4
        val_sets = [s.val_subjects for s in splits]
        assert sorted(len(v) for v in val_sets) == [8, 8, 8, 9]
        union = frozenset().union(*val_sets)
        assert union == frozenset(subjects)
        assert sum(len(v) for v in val_sets) == 33
        for s in splits:
            assert s.train_subjects | s.val_subjects == frozenset(subjects)
            assert not (s.train_subjects & s.val_subjects)

    def test_deterministic(self):
        subjects = [f"s{i}" for i in range(10)]
        a = split_subjects(subjects, n_folds=3, seed=5)
        b = split_subjects(subjects, n_folds=3, seed=5)
        assert a == b

    def test_too_few_subjects_rejected(self):
        with pytest.raises(DataError, match="too few subjects"):
            split_subjects(["a", "b"], n_folds=4)
