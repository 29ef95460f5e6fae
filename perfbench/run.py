#!/usr/bin/env python3
"""polar-kit benchmark: one workload, one seed, one JSON line of results.

Run from the checkout root:

    python3 perfbench/run.py --workload dense_k26 --seed 7 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped: per-mode
``run_pipeline`` throughput (closed loop, one caller, the default worker
pool), per-frame ``select_candidates`` latency on candidates generated
beforehand, pooled mF1, set-up time and peak memory.  ``--trace 1`` alternates
untraced and traced pipeline passes and reports per-layer self times and
counters.  Every run checks its outputs; a failed check counts as a failed
operation and the remaining numbers are still reported.  The last line of
standard output is the JSON result.  ``--record-digests`` rewrites
``digests.json`` from the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 5
PIPELINE_SECONDS = 1.5  # one canonical-run call; two calls of the faster K=1024 dual run
DEFAULT_SEED = 7  # with dense_k26, the ROADMAP canonical run
WORKLOAD_NAMES = ("dense_k26", "dense_k1024", "crowded_k1024")


def import_program():
    """Import polar_kit from this checkout's ``src`` and nowhere else."""
    if not (SRC / "polar_kit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no polar-kit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polar_kit

    if SRC not in Path(polar_kit.__file__).resolve().parents:
        sys.exit(f"perfbench: polar_kit was imported from {polar_kit.__file__}, not {SRC}")


class Book:
    """Attempted and failed operations; a check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def call(self, fn, *args):
        """(result, seconds) of fn(*args), or None when it raises."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = fn(*args)
            return out, time.perf_counter() - t0
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None


class Outputs:
    """Checks each pipeline result against the mode's first one and the recorded digests."""

    def __init__(self, book: Book, workloads, name: str, seed: int):
        self.book = book
        self.workloads = workloads
        self.first: dict = {}
        self.digests: dict = {}
        recorded = {}
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            recorded = json.loads(DIGESTS.read_text()).get(name, {})
        self.recorded = recorded

    def add(self, run, result, label: str) -> None:
        digest = self.workloads.output_digests(run, result)
        mode = run.mode
        if mode not in self.first:
            self.first[mode] = result
            self.digests[mode] = digest
            if mode in self.recorded:
                self.book.check(digest == self.recorded[mode],
                                f"{mode}: outputs differ from the recorded seed digests")
        else:
            self.book.check(digest == self.digests[mode],
                            f"{mode}: {label} outputs differ from the first run")

    def check_shared_candidates(self) -> None:
        from polar_kit.harness import assert_shared_candidates

        results = list(self.first.values())
        for other in results[1:]:
            try:
                assert_shared_candidates(results[0], other)
                ok = True
            except AssertionError:
                ok = False
            self.book.check(ok, "modes consumed different candidate sets")


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile would fall under the median, so the
    maximum is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def probe_setup(name: str, seed: int) -> None:
    """Child process: time importing polar_kit and building the workload's specs and weights."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    runs = workloads.build_runs(name, seed)
    workloads.head_weights(runs["dual_confidence"])
    print(time.perf_counter() - t0)


def setup_seconds(book: Book, name: str, seed: int) -> list[float]:
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        book.attempted += 1
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            book.failed += 1
            print(proc.stderr, file=sys.stderr)
            continue
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def steps(seconds: float, minimum: int):
    """Yield step numbers until the next step would overrun ``seconds`` by more
    than half a step; at least ``minimum`` steps."""
    t0 = time.perf_counter()
    n = 0
    while True:
        yield n
        n += 1
        elapsed = time.perf_counter() - t0
        if n >= minimum and elapsed + 0.5 * elapsed / n > seconds:
            return


def rotated(modes, r: int):
    k = r % len(modes)
    return modes[k:] + modes[:k]


def measure_e2e(name: str, seed: int, seconds: float) -> tuple[Book, dict, list[str]]:
    book = Book()
    setup = setup_seconds(book, name, seed)
    import workloads
    from polar_kit.harness import MODES, run_pipeline, select_candidates

    runs = workloads.build_runs(name, seed)
    weights = workloads.head_weights(runs["dual_confidence"])
    inputs = workloads.frame_inputs(runs["sequential"])
    n_scenes = len(inputs)
    budget = workloads.WORKLOADS[name].frame_seconds_per_step
    outputs = Outputs(book, workloads, name, seed)
    rates = {m: [] for m in MODES}
    frames = {m: [] for m in MODES}
    picks = {m: {} for m in MODES}
    cursors = dict.fromkeys(MODES, 0)

    # Each step gives one mode (modes in turn) PIPELINE_SECONDS of run_pipeline
    # calls, then every mode about ``budget`` seconds of frame calls (at least
    # one call each), so both kinds of sample spread over the whole run and see
    # the host's speed drift alike.
    for step in steps(seconds, minimum=2 * len(MODES)):
        mode = MODES[step % len(MODES)]
        spent = 0.0
        while spent < PIPELINE_SECONDS:
            timed = book.call(run_pipeline, runs[mode])
            if timed is None:
                break
            spent += timed[1]
            rates[mode].append(n_scenes / timed[1])
            outputs.add(runs[mode], timed[0], f"step {step}")
        for m in rotated(MODES, step):
            spent = 0.0
            while spent < budget:
                idx = cursors[m] % n_scenes
                cursors[m] += 1
                gts, cands = inputs[idx]
                timed = book.call(select_candidates, cands, runs[m], gts, weights, idx)
                if timed is None:
                    break
                spent += timed[1]
                frames[m].append(timed[1])
                picks[m].setdefault(idx, tuple(int(i) for i in timed[0]))
    for mode in MODES:
        if mode in outputs.first:
            outcomes = outputs.first[mode].outcomes
            book.check(all(outcomes[i].selected == p for i, p in picks[mode].items()),
                       f"{mode}: select_candidates differs from run_pipeline")
    outputs.check_shared_candidates()

    metrics = {"setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    notes = [f"setup_s: median of {len(setup)} fresh-process set-ups"]
    for mode in MODES:
        value, pct, n = tail(frames[mode])
        metrics[f"{mode}.scenes_per_s"] = (statistics.median(rates[mode]), "1/s")
        metrics[f"{mode}.frame_p50_ms"] = (1e3 * statistics.median(frames[mode]), "ms")
        metrics[f"{mode}.frame_tail_ms"] = (1e3 * value, "ms")
        metrics[f"{mode}.mf1"] = (outputs.first[mode].report.mf1, "ratio")
        notes.append(f"{mode}: {len(rates[mode])} run_pipeline calls of {n_scenes} scenes; "
                     f"frame_tail_ms is p{pct:.2f} of {n} select_candidates calls")
    metrics["ok_frac"] = (1.0 - book.failed / book.attempted, "ratio")
    notes.append(f"failed_frac: {book.failed / book.attempted}")
    return book, metrics, notes


def measure_layers(name: str, seed: int, seconds: float) -> tuple[Book, dict, list[str]]:
    book = Book()
    import workloads
    from tracer import Tracer, layer_metrics
    from polar_kit.harness import MODES, run_pipeline

    runs = workloads.build_runs(name, seed)
    outputs = Outputs(book, workloads, name, seed)
    plain_walls, traced_walls, passes = [], [], []
    for step in steps(seconds, minimum=2):
        order = rotated(MODES, step)
        wall = 0.0
        for mode in order:
            timed = book.call(run_pipeline, runs[mode])
            if timed is not None:
                outputs.add(runs[mode], timed[0], f"untraced step {step}")
                wall += timed[1]
        plain_walls.append(wall)

        tracer = Tracer(runs["sequential"].thresholds)
        wall = 0.0
        with tracer.installed():
            for mode in order:
                timed = book.call(tracer.run_pipeline, runs[mode])
                if timed is not None:
                    outputs.add(runs[mode], timed[0], f"traced step {step}")
                    wall += timed[1]
        traced_walls.append(wall)
        if passes:
            book.check(tracer.counts() == passes[0].counts(),
                       f"traced step {step}: counters differ from the first traced step")
        passes.append(tracer)

    trace_path = workloads.out_dir() / f"trace_{name}_seed{seed}.jsonl"
    with trace_path.open("w") as fh:
        for i, tracer in enumerate(passes):
            for span in tracer.span_dicts():
                fh.write(json.dumps({"pass": i, **span}) + "\n")

    per_pass = [layer_metrics(t) for t in passes]
    # Counts are identical across passes (checked above); times take the median.
    metrics = {
        key: (value if isinstance(value, int) else statistics.median(p[key][0] for p in per_pass),
              unit)
        for key, (value, unit) in per_pass[0].items()
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0, "ratio")
    notes = [f"{len(passes)} traced passes of {len(MODES)} run_pipeline calls; "
             f"self times are per pass (medians); spans in {trace_path}"]
    return book, metrics, notes


def record_digests() -> None:
    import workloads
    from polar_kit.harness import run_pipeline

    blob = {}
    for name in WORKLOAD_NAMES:
        runs = workloads.build_runs(name, DEFAULT_SEED)
        blob[name] = {mode: workloads.output_digests(run, run_pipeline(run))
                      for mode, run in runs.items()}
    DIGESTS.write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


def environment() -> str:
    import numpy
    import scipy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default="dense_k26")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    import_program()
    if args.record_digests:
        record_digests()
        return 0

    measure = measure_layers if args.trace else measure_e2e
    book, metrics, notes = measure(args.workload, args.seed, args.seconds)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} {environment()}")
    for note in notes:
        print(note)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value} {unit}")
    print(json.dumps({
        "correct": book.failed == 0,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
