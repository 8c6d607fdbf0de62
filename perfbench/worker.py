"""One benchmark process: set up a workload, or run its timed phase once.

Started by run.py, never by hand:

    python3 perfbench/worker.py {setup|phase} --workload W --seed N
        --work DIR --result FILE [--repeat K] [--trace]

Set-up runs in a process of its own, K times in a row; every timed phase
runs in a fresh process, so each phase's peak RSS is its own and no
phase inherits another's caches. The result goes to FILE as JSON. An
unexpected error exits non-zero, and run.py counts the phase's
operations as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

from primcount import cli, dataset, decoding, evaluation, model, preprocess  # noqa: E402
from tracing import Tracer, peak_rss_mb  # noqa: E402

FIT_CONFIG = BENCH_DIR / "fit_small.json"  # copy of configs/smoke.json, pinned


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _error() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _untrained_ensemble(recordings, n_members: int, seed: int):
    """Seeded, untrained members with normalization fitted on the data.

    Throughput does not depend on what the members learned, so training
    them would only lengthen set-up.
    """
    config = model.ModelConfig(input_dim=77, hidden_dim=64, embed_dim=32)
    stats = preprocess.fit_normalization([r.recording for r in recordings])
    members = [(model.init_params(config, model.member_seed(seed, i)), stats) for i in range(n_members)]
    return model.EnsembleModel(config, members)


def _paper_spec(n_subjects: int, duration_s: float):
    return dataset.SynthSpec(
        n_subjects=n_subjects,
        trials_per_subject=1,
        duration_s=duration_s,
        sample_rate_hz=100.0,
        n_channels=77,
    )


# ---------------------------------------------------------------------------
# fit_small: the smoke-config pipeline through primcount.cli.main
# ---------------------------------------------------------------------------

FIT_STAGES = ("train", "predict", "count", "eval")


class FitSmall:
    def setup(self, work: Path, seed: int) -> None:
        code = cli.main(self._args("synth", work, seed, work / "in" / "synth_out"))
        if code != 0:
            raise RuntimeError(f"synth exited {code}")

    def _args(self, stage, work, seed, out):
        return [stage, "--config", str(FIT_CONFIG), "--seed", str(seed),
                "--data", str(work / "in" / "data"), "--out", str(out)]

    def prepare(self, work: Path, seed: int) -> dict:
        # one output directory for every iteration: report.json records it
        return {"work": work, "seed": seed, "out": _fresh(work / "out")}

    def run(self, state: dict) -> dict:
        ops, stage_s = [], {}
        for stage in FIT_STAGES:
            t0 = time.perf_counter()
            try:
                code = cli.main(self._args(stage, state["work"], state["seed"], state["out"]))
                ops.append([stage, code == 0, None if code == 0 else f"exit code {code}"])
            except Exception:  # the loop must go on to record every stage
                ops.append([stage, False, _error()])
            stage_s[stage] = time.perf_counter() - t0
        return {"ops": ops, "stage_s": stage_s}

    def check(self, state: dict, res: dict, wall: float) -> dict:
        out, seed = state["out"], state["seed"]
        cfg = cli.RunConfig.from_json(json.loads(FIT_CONFIG.read_text()))
        data = dataset.load_dataset(state["work"] / "in" / "data")
        report = json.loads((out / "report.json").read_text())
        report.pop("timing", None)
        sequences = (out / "sequences.jsonl").read_text()
        micro = report["metrics"]["overall"]["overall"]["micro"]
        # training window-epochs: windows each member trains on, times the
        # epochs it ran, so the rate does not depend on early stopping
        epochs = [len(log) for log in json.loads((out / "train_log.json").read_text())]
        pool, _ = cli.holdout_split(data.subjects, cfg.test_fraction, seed)
        folds = dataset.split_subjects(pool, n_folds=cfg.n_folds, seed=seed)
        spec = cfg.window_spec()
        window_epochs = 0
        for fold, n_epochs in zip(folds, epochs):
            n_windows = sum(
                len(preprocess.make_windows(r.recording, spec, mode="train"))
                for r in data.recordings
                if r.recording.subject_id in fold.train_subjects
            )
            window_epochs += n_windows * n_epochs
        return {
            # frames pushed through training per second of train
            "frames_per_s": window_epochs * spec.window_frames / res["stage_s"]["train"],
            "sequences_digest": hashlib.sha256(sequences.encode()).hexdigest()[:16],
            "output_digest": _digest([report, sequences]),
            "extra": {
                "train_window_epochs_per_s": window_epochs / res["stage_s"]["train"],
                "heldout_f1": micro["f1"],
                "heldout_aer": micro["aer"],
                "baseline_f1": report["baseline"]["overall"]["micro"]["f1"],
                "epochs": epochs,
                "stage_s": res["stage_s"],
            },
        }


# ---------------------------------------------------------------------------
# decode_paper: batch inference at paper geometry, CSV to scored output
# ---------------------------------------------------------------------------


class DecodePaper:
    n_recordings = 2
    duration_s = 120.0  # 30 test windows per recording, one decode batch each

    def setup(self, work: Path, seed: int) -> None:
        data = dataset.synthesize_dataset(_paper_spec(self.n_recordings, self.duration_s), seed)
        dataset.save_dataset(data, work / "in" / "data")
        model.save_ensemble(work / "in" / "models", _untrained_ensemble(data.recordings, 4, seed))

    def prepare(self, work: Path, seed: int) -> dict:
        return {"inputs": work / "in"}

    def run(self, state: dict) -> dict:
        inputs = state["inputs"]
        scored = []
        try:
            paths = sorted((inputs / "models").glob("model.*.bin"))
            ensemble = model.load_ensemble(paths)
            data = dataset.load_dataset(inputs / "data")
        except Exception:
            err = _error()
            return {"ops": [[f"recording{i}", False, err] for i in range(self.n_recordings)]}
        rss_after_load = peak_rss_mb()
        spec = preprocess.WindowSpec(sample_rate_hz=100.0)
        ops, records = [], []
        for labeled in sorted(data.recordings, key=lambda r: r.recording_id):
            rec = labeled.recording
            try:
                windows = preprocess.make_windows(rec, spec, mode="test")
                preds = decoding.decode_windows(ensemble, windows)
                session = decoding.stitch_windows(preds)
                counts = decoding.count(session)
                tallies = evaluation.tally(evaluation.align(labeled.class_sequence(), session.tokens))
                records.append(evaluation.AlignmentRecord(rec.subject_id, rec.activity, tallies))
                scored.append((labeled, session, counts, tallies))
                ops.append([rec.recording_id, True, None])
            except Exception:
                ops.append([rec.recording_id, False, _error()])
        try:
            overall = evaluation.aggregate(records, group_by="overall")["overall"]
        except Exception:
            err = _error()
            ops = [[name, False, err] for name, _, _ in ops]
            overall = None
        return {"ops": ops, "scored": scored, "overall": overall,
                "frames": sum(r.recording.n_frames for r in data.recordings),
                "rss_after_load_mb": rss_after_load}

    def check(self, state: dict, res: dict, wall: float) -> dict:
        sequences = []
        for labeled, session, counts, tallies in res.get("scored", []):
            problems = []
            if tallies.gt_length != len(labeled.class_sequence()):
                problems.append("tp+fn != ground-truth length")
            if tallies.pred_length != len(session.tokens):
                problems.append("tp+fp != predicted length")
            if counts.total != len(session.tokens):
                problems.append("counts do not sum to sequence length")
            if problems:
                idx = next(k for k, op in enumerate(res["ops"]) if op[0] == session.recording_id)
                res["ops"][idx] = [session.recording_id, False, "; ".join(problems)]
            sequences.append(session.to_json())
        overall = res.get("overall")
        if overall is not None and overall.n_records != len(sequences):
            res["ops"] = [[name, False, "aggregate lost records"] for name, _, _ in res["ops"]]
        digest = _digest(sequences)
        return {
            "frames_per_s": res.get("frames", 0) / wall,
            "sequences_digest": digest,
            "output_digest": digest,
            "extra": {"rss_after_load_mb": res.get("rss_after_load_mb", 0.0)},
        }


# ---------------------------------------------------------------------------
# stream_paper: stream_replay at speed=inf, one window per decode call
# ---------------------------------------------------------------------------


class StreamPaper:
    duration_s = 120.0  # 30 windows per phase

    def setup(self, work: Path, seed: int) -> None:
        data = dataset.synthesize_dataset(_paper_spec(1, self.duration_s), seed)
        rec = data.recordings[0].recording
        np.save(work / "in" / "frames.npy", rec.frames)
        meta = {"subject_id": rec.subject_id, "activity": rec.activity,
                "trial": rec.trial, "sample_rate_hz": rec.sample_rate_hz}
        (work / "in" / "meta.json").write_text(json.dumps(meta))
        model.save_ensemble(work / "in", _untrained_ensemble(data.recordings, 2, seed))

    def prepare(self, work: Path, seed: int) -> dict:
        d = work / "in"
        meta = json.loads((d / "meta.json").read_text())
        recording = dataset.IMURecording(frames=np.load(d / "frames.npy"), **meta)
        ensemble = model.load_ensemble(sorted(d.glob("model.*.bin")))
        slide = preprocess.WindowSpec(sample_rate_hz=recording.sample_rate_hz).test_slide_frames
        return {"work": work, "recording": recording, "ensemble": ensemble,
                "n_windows": math.ceil(recording.n_frames / slide)}

    def run(self, state: dict) -> dict:
        try:
            result = cli.stream_replay(state["recording"], state["ensemble"], speed=math.inf)
        except Exception:
            err = _error()
            return {"ops": [[f"window{i}", False, err] for i in range(state["n_windows"])]}
        ops = [[f"window{e['window']}", True, None] for e in result.events]
        return {"ops": ops, "result": result, "frames": state["recording"].n_frames}

    def _batch_reference(self, state: dict) -> dict:
        """Per-window tokens, sequence and counts of one batch decode of the
        same windows. The first phase of a run computes and saves them."""
        path = state["work"] / "in" / "batch.json"
        if path.is_file():
            return json.loads(path.read_text())
        recording = state["recording"]
        spec = preprocess.WindowSpec(sample_rate_hz=recording.sample_rate_hz)
        batch = decoding.decode_windows(state["ensemble"], preprocess.make_windows(recording, spec, mode="test"))
        stitched = decoding.stitch_windows(batch)
        ref = {
            "windows": [[t.label for t in p.tokens] for p in batch],
            "sequence": [t.label for t in stitched.tokens],
            "counts": decoding.count(stitched).to_json(),
        }
        path.write_text(json.dumps(ref))
        return ref

    def check(self, state: dict, res: dict, wall: float) -> dict:
        result = res.get("result")
        if result is None:
            return {"frames_per_s": 0.0, "sequences_digest": "", "output_digest": "", "extra": {}}
        ref = self._batch_reference(state)
        ops = res["ops"]
        for i, event in enumerate(result.events):
            if i >= len(ref["windows"]) or event["tokens"] != ref["windows"][i]:
                ops[i] = [ops[i][0], False, "stream tokens differ from batch tokens"]
        for i in range(len(result.events), len(ref["windows"])):
            ops.append([f"window{i}", False, "window missing from stream"])
        if [t.label for t in result.session.tokens] != ref["sequence"] or result.counts.to_json() != ref["counts"]:
            ops[-1] = [ops[-1][0], False, "streamed sequence differs from batch sequence"]
        digest = _digest(result.session.to_json())
        return {
            "frames_per_s": res["frames"] / wall,
            "sequences_digest": digest,
            "output_digest": digest,
            "extra": {"compute_ms": [1000.0 * e["compute_s"] for e in result.events]},
        }


WORKLOADS = {"fit_small": FitSmall(), "decode_paper": DecodePaper(), "stream_paper": StreamPaper()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "phase"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--repeat", type=int, default=1, help="set-ups to time in a row")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    if args.mode == "setup":
        out = {"setup_s": []}
        if tracer:
            tracer.install()
        for _ in range(args.repeat):
            _fresh(args.work / "in")  # every set-up writes its inputs here
            t0 = time.perf_counter()
            workload.setup(args.work, args.seed)
            out["setup_s"].append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
    else:
        state = workload.prepare(args.work, args.seed)
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        res = workload.run(state)
        wall = time.perf_counter() - t0
        peak = peak_rss_mb()  # before the checks, which allocate on their own
        if tracer:
            tracer.uninstall()
        out = {"wall_s": wall, "peak_rss_mb": peak, **workload.check(state, res, wall), "ops": res["ops"]}
    if tracer:
        out["trace"] = tracer.to_json()
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
