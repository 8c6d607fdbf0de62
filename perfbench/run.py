"""The primcount benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {fit_small,decode_paper,stream_paper}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Each workload is a closed loop
with one caller: set-up runs several times in a process of its own, then
the timed phase runs again and again, one process at a time, until S
seconds have passed and at least as often as SIZING says.
Inputs come from synthesize_dataset with the given seed; nothing is
downloaded.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones in BENCHMARK.json. With --trace 1 one untraced and
one traced phase run, and the metrics are the per-layer ones. Lines before it
give the environment, every metric by name with its unit, and the
digests of the decoded sequences. The full record, spans included, goes
to .bench_out/ in the checkout. See NOTES.md for what each number means.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracing import COMPUTED_FROM_SHAPES, per_layer_metrics, unit_of  # noqa: E402

# workload -> (set-ups timed per run, fewest timed phases per run). Every
# phase lasts 3-5 s, so a run of 45 s takes the median of about ten; on a
# shared 2-core machine one phase can differ from the next by 10-20%, and
# a median of many short phases steadies that better than a few long
# ones. decode_paper's set-up writes 37 MB of CSV, so it is
# timed three times; the others set up in a fraction of a second.
SIZING = {"fit_small": (9, 3), "decode_paper": (3, 3), "stream_paper": (9, 3)}
RUN_BUDGET_S = 150.0  # start no iteration that would end past this


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "commit": None,
    }
    for lib_path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    try:
        env["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return env


def _child(mode: str, args, work: Path, tag: str, trace: bool, timeout: float, repeat: int = 1):
    """Run worker.py once; returns its result dict, or None if it failed."""
    result = work / f"{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--result", str(result),
           "--repeat", str(repeat)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"{tag}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.is_file():
        print(f"{tag}: exit code {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def _workload_metrics(workload: str, phases: list[dict]) -> dict:
    """Numbers that exist on one workload only: printed, not gated."""
    out = {}
    if not phases:
        return out
    if workload == "fit_small":
        for key, unit in (("train_window_epochs_per_s", "1/s"), ("heldout_f1", "ratio"),
                          ("heldout_aer", "ratio"), ("baseline_f1", "ratio")):
            out[key] = (statistics.median(p["extra"][key] for p in phases), unit)
    if workload == "stream_paper":
        samples = [ms for p in phases for ms in p["extra"]["compute_ms"]]
        deciles = statistics.quantiles(samples, n=10, method="inclusive")
        out["window_ms_p50"] = (deciles[4], "ms")
        out["window_ms_p90"] = (deciles[8], "ms")
        out["window_samples"] = (len(samples), "count")
    if workload == "decode_paper":
        out["rss_after_load_mb"] = (statistics.median(p["extra"]["rss_after_load_mb"] for p in phases), "MB")
    return out


def run(args) -> dict:
    if not (ROOT / "src" / "primcount" / "__init__.py").is_file():
        raise BenchError(f"no primcount sources under {ROOT / 'src'}")
    began = time.perf_counter()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace = bool(args.trace)
    env = _environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))

    def remaining():
        return RUN_BUDGET_S - (time.perf_counter() - began)

    n_setups, min_phases = SIZING[args.workload]
    setup = _child("setup", args, work, "setup", trace, remaining(), repeat=1 if trace else n_setups)
    if setup is None:
        raise BenchError("set-up failed")
    print("setup " + " ".join(f"{t:.3f}" for t in setup["setup_s"]) + " s")

    phases: list[dict | None] = []
    phase_start = time.perf_counter()
    last = 0.0
    while True:
        t0 = time.perf_counter()
        res = _child("phase", args, work, f"phase{len(phases)}", False, remaining())
        last = time.perf_counter() - t0
        phases.append(res)
        if res is None:
            print(f"phase {len(phases) - 1}: failed")
        else:
            print(f"phase {len(phases) - 1}: wall {res['wall_s']:.3f} s, peak rss "
                  f"{res['peak_rss_mb']:.1f} MB, sequences {res['sequences_digest']}")
        need = 1 if trace else min_phases
        enough = len(phases) >= need and (trace or time.perf_counter() - phase_start >= args.seconds)
        if enough or remaining() < 1.2 * last:
            break
    traced = None
    if trace:
        traced = _child("phase", args, work, "traced", True, remaining())
        phases.append(traced)
        if traced is not None:
            print(f"traced phase: wall {traced['wall_s']:.3f} s")

    # every phase counts its operations; a failed process counts the
    # operations the first good phase had, or one if there was none
    expected = max((len(p["ops"]) for p in phases if p is not None), default=1)
    reference = next((p["output_digest"] for p in phases if p is not None), None)
    attempted = failed = 0
    errors = []
    for i, p in enumerate(phases):
        if p is None:
            attempted += expected
            failed += expected
            continue
        attempted += len(p["ops"])
        if p["output_digest"] != reference:
            failed += len(p["ops"])
            errors.append(f"phase {i}: output differs from phase 0 with the same seed")
            continue
        bad = [op for op in p["ops"] if not op[1]]
        failed += len(bad)
        errors.extend(f"phase {i}: {name}: {err}" for name, _, err in bad[:5])

    untraced = [p for p in phases if p is not None and p is not traced]
    wall = statistics.median(p["wall_s"] for p in untraced) if untraced else 0.0
    e2e = {
        "setup_s": statistics.median(setup["setup_s"]),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced) if untraced else 0.0,
        "frames_per_s": statistics.median(p["frames_per_s"] for p in untraced) if untraced else 0.0,
    }
    extra = _workload_metrics(args.workload, untraced)
    extra["failed_ratio"] = (failed / attempted, "ratio")
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    for name, (value, unit) in extra.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"sequences_digest {untraced[0]['sequences_digest'] if untraced else '-'}")
    for line in errors[:10]:
        print(f"error {line}", file=sys.stderr)

    if trace:
        if traced is None:
            raise BenchError("traced phase failed")
        layer = per_layer_metrics(traced, setup, wall)
        metrics = layer
        for name, value in layer.items():
            label = " (computed from shapes)" if name in COMPUTED_FROM_SHAPES else ""
            print(f"{name} {value:.6g} {unit_of(name)}{label}")
        for where in traced["trace"]["absent"]:
            print(f"absent {where}")
        for err in traced["trace"]["counter_errors"][:5]:
            print(f"counter error {err}", file=sys.stderr)
    else:
        metrics = e2e

    record = {
        "workload": args.workload,
        "environment": env,
        "seconds": args.seconds,
        "elapsed_s": time.perf_counter() - began,
        "setup_s": setup["setup_s"],
        "phases": [None if p is None else {k: v for k, v in p.items() if k != "trace"} for p in phases],
        "workload_metrics": {k: v for k, (v, _) in extra.items()},
        "errors": errors,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace:
        spans = {"setup": setup["trace"], "phase": traced["trace"]}
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans))
    shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="primcount benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SIZING))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
