#!/usr/bin/env python3
"""Closed-loop benchmark of the laf CLI: one process, one client, passes back to back.

    python3 perfbench/run.py --workload desk_weighting --seed 0 --seconds 15 --trace 0

Run from the root of a laf checkout. Builds the workload's inputs from the
seed, then runs passes of in-process ``laf.cli.main`` calls until
``--seconds`` have elapsed and the workload's minimum number of passes is
done. Inputs are rebuilt several times before every pass; ``setup_s`` is the
median of all those builds. Times are corrected for the host's speed by
``hostclock``. Every pass is checked. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer table instead of the
end-to-end metrics. The last line of standard output is the JSON result;
the full record, spans included, goes to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import hostclock
import layers

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"
REQUIRED = ("src/laf/__init__.py", "src/laf/cli.py", "configs/desk_experiment.json")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 25
DEFAULT_SEED = 0
HELD_OUT_SEED = 1009


def pin_blas_threads() -> int:
    """Cap every BLAS thread variable at nproc (default 1); call before importing numpy."""
    nproc = os.cpu_count() or 1
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    except ValueError:
        wanted = 1
    threads = max(1, min(wanted, nproc))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=20, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config instead
        blas = {}
    # A checkout that is not itself a git work tree records no commit.
    inside = _git("rev-parse", "--show-toplevel") == str(ROOT)
    commit = _git("rev-parse", "HEAD") if inside else None
    status = _git("status", "--porcelain") if commit else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": commit,
        "git_dirty": bool(status) if commit else None,
    }


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns (exit code, captured stderr)."""
    from laf import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed call, not a failed benchmark
            code = -1
            err.write(traceback.format_exc())
    return code, err.getvalue()


def observe_transfer(undo: list) -> list:
    """Summarize every run_domain_transfer call, for purity and weight checks."""
    from workloads import summarize_transfer

    seen: list = []

    def make(fn):
        def observed(corpus, *args, **kwargs):
            result = fn(corpus, *args, **kwargs)
            seen.append(summarize_transfer(corpus, result))
            return result
        return observed

    layers.patch_everywhere("transfer", "run_domain_transfer", make, undo)
    return seen


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setup_times: list[float] = []

    def build_inputs(tag: str) -> Path:
        """Build the inputs SETUP_REPEATS times, timing each; the passes use the last build."""
        before, times = hostclock.reference_loop(), []
        for k in range(SETUP_REPEATS):
            inputs = work / f"inputs-{tag}-{k}"
            started = time.perf_counter()
            inputs.mkdir(parents=True)
            workload.setup(ROOT, inputs, seed)
            times.append(time.perf_counter() - started)
        after = hostclock.reference_loop()
        setup_times.extend(hostclock.rescale(t, before, after) for t in times)
        return inputs

    observer_undo: list = []
    observed = observe_transfer(observer_undo)
    tracer = layers.Tracer()
    passes, previous, missing = [], None, []
    min_passes = 2 if trace else workload.min_passes  # a traced run pairs plain with traced
    started = time.perf_counter()
    try:
        while len(passes) < min_passes or time.perf_counter() - started < seconds:
            traced = trace and len(passes) % 2 == 1
            inputs = build_inputs(str(len(passes)))
            out = work / f"pass{len(passes)}"
            out.mkdir()
            calls = workload.calls(inputs, out, seed)
            undo: list = []
            clock = hostclock.HostClock()
            if traced:  # segments end only between calls, so no loop runs inside a span
                missing = layers.install(tracer, undo)
            else:
                layers.install_ticks(clock, undo)
            observed.clear()
            clock.start()
            results = []
            for call in calls:
                results.append(run_cli(call.argv))
                clock.tick()
            clock.stop()
            layers.unpatch(undo)
            spans = tracer.take()
            outcome, failures = None, {}
            if all(code == 0 for code, _ in results):
                try:
                    outcome = workload.check(inputs, out, calls, observed, previous)
                    failures = dict(outcome.failures)
                except (OSError, ValueError, KeyError) as exc:
                    failures[len(calls) - 1] = [f"outputs unreadable: {exc!r}"]
            for index, (code, err) in enumerate(results):
                if code != 0:
                    failures.setdefault(index, []).insert(0, f"exit {code}: {err.strip()[-400:]}")
            passes.append({"traced": traced, "wall_s": clock.scaled_s, "raw_wall_s": clock.raw_s,
                           "probes": clock.probes, "calls": len(calls),
                           "failures": {str(k): v for k, v in sorted(failures.items())},
                           "quality": outcome.quality if outcome else {}, "spans": spans})
            previous = outcome.fingerprint if outcome else None
            shutil.rmtree(out)
    finally:
        layers.unpatch(observer_undo)
    return {"setup_times": setup_times, "passes": passes, "missing": missing,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def end_to_end(record: dict) -> dict:
    plain = [p["wall_s"] for p in record["passes"] if not p["traced"]]
    return {
        "setup_s": (median(record["setup_times"]), "s"),
        "wall_s": (median(plain), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }


def per_layer(record: dict, workload: str) -> tuple[dict, dict]:
    traced = [p for p in record["passes"] if p["traced"]]
    absent = {}
    for p in traced:
        absent.update(layers.coverage(p["spans"], workload, record["missing"]))
    tables = [layers.layer_table(p["spans"], absent) for p in traced]
    values = {m.name: (median([t[m.name] for t in tables]), m.unit)
              for m in layers.METRICS if m.name in tables[0]}
    for name, unit in layers.QUALITY:
        values[name] = (median([p["quality"].get(name, 0.0) for p in traced]), unit)
    plain = median([p["wall_s"] for p in record["passes"] if not p["traced"]])
    values["trace.overhead_ratio"] = (median([p["wall_s"] for p in traced]) / plain - 1.0, "ratio")
    return values, absent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; confirm claims on "
                             f"the held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"error: {ROOT} is not a laf checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(blas_threads)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = RUNS_DIR / f"{tag}-{os.getpid()}"
    try:
        record = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["calls"] for p in record["passes"])
    failed = sum(len(p["failures"]) for p in record["passes"])
    absent: dict = {}
    if args.trace:
        metrics, absent = per_layer(record, workload.name)
    else:
        metrics = end_to_end(record)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"{tag}: {len(record['passes'])} passes, {attempted} calls, {failed} failed")
    for index, p in enumerate(record["passes"]):
        for call, messages in p["failures"].items():
            for message in messages:
                print(f"check failed: pass {index} call {call}: {message}")
    quality = record["passes"][0]["quality"]
    for name, value in sorted(quality.items()):
        print(f"quality {name} {value:.6g}")
    raw = median([p["raw_wall_s"] for p in record["passes"] if not p["traced"]])
    print(f"uncorrected wall_s {raw:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, why in sorted(absent.items()):
        print(f"absent: {name} ({why})")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    RUNS_DIR.mkdir(exist_ok=True)
    saved = {**result, "env": env, "workload": workload.name, "seed": args.seed,
             "trace": args.trace, "setup_times": record["setup_times"], "absent": absent,
             "passes": [{**p, "spans": [vars(s) for s in p["spans"]]} for p in record["passes"]]}
    (RUNS_DIR / f"{tag}.json").write_text(json.dumps(saved) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
