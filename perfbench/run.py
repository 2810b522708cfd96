#!/usr/bin/env python3
"""Time-to-verdict benchmark for levyid.

A workload is a suite config generated from --seed (see workloads.py). It
runs through the public entry point levyid.cli.main in this process, again
and again for --seconds, and the run prints every metric by name with its
unit. The last line of stdout is one JSON object with the keys "correct",
"attempted", "failed" and "metrics".

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json, measured
with tracing off. Times to verdict are bounded as wall_ref and cpu_ref, a
pass's wall and CPU seconds over the seconds of a fixed reference kernel
timed before and after it; the raw seconds are printed beside them.
--trace 1 alternates untraced and traced passes for
--seconds, repeats the report digest check with a traced pass at
--workers 1, and reports the per-layer metrics.

    python3 perfbench/run.py --workload identity --seed 7 --seconds 15 --trace 0

Run it from a levyid checkout; without src/levyid or configs/ it exits with
code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

from tracer import Tracer, instrument, totals
from workloads import (CONFIGS, DEFAULT_SEED, WORKLOADS, check_report, digest, se_rel_gmean,
                       suite_config)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_REPS = 5        # fresh interpreters per run; setup_s is their median
MIN_PASSES = 5        # timed passes per run after the first, however short --seconds is
SPEEDUP_N = 200_000   # rows per sample_paths call in the thread-scaling micro-run
SPEEDUP_REPS = 3
# reference kernel: REF_REPS rounds of REF_RESAMPLES x REF_ROWS gathers, ~0.3 s;
# a shorter one is noisier than the pass it is meant to steady
REF_ROWS = 5_000
REF_RESAMPLES = 500
REF_REPS = 10
# computed bytes per resampled cell: the int64 index and float64 value read,
# the float64 gathered copy written and read back by the sum
BYTES_PER_CELL = 32


def run_child(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter with src/ on its path, run to completion."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def run_pass(cli, config: Path, out: Path, seed: int, workers: int) -> dict:
    """One suite run through cli.main: wall and CPU seconds, the report, and
    the warnings it raised. A raising job ends the pass with `error` set."""
    out.unlink(missing_ok=True)
    argv = ["suite", "--config", str(config), "--seed", str(seed),
            "--workers", str(workers), "--out", str(out)]
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
            if code not in (0, 1):
                error = f"levyid exited with code {code}"
        except Exception as exc:  # a job that raises counts as failed; keep measuring
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    report = json.loads(out.read_text()) if error is None else None
    return {"wall": wall, "cpu": cpu, "report": report, "error": error,
            "bytes": out.stat().st_size if report is not None else 0,
            "warnings": [str(w.message) for w in caught]}


class Gate:
    """Correctness gate over every pass of a run.

    An operation is one job of the workload, run again on every pass. It
    fails when its verdict is not "pass", when its seed or resolved sizes
    are not the workload's, or when a pass raised or wrote a report whose
    digest differs from the first pass's. Each job counts once however many
    passes fit in --seconds, so `failed` depends on the seed alone: a job's
    verdict is the same on every pass, and counting it per pass would make
    the count follow the machine's speed. Everything but a "fail" verdict
    also makes the run incorrect: verdicts are statistical tests, which
    reject a true identity at their nominal rate at some seeds.
    """

    def __init__(self, suite: dict):
        self.suite = suite
        self.attempted = len(suite["jobs"])
        self.passes = 0
        self.failed_jobs: set[int] = set()
        self.problems: list[str] = []
        self.verdict_fails: set[str] = set()
        self.digest = None

    @property
    def failed(self) -> int:
        return len(self.failed_jobs)

    def record(self, p: dict, label: str) -> None:
        self.passes += 1
        if p["report"] is None:
            self.failed_jobs.update(range(self.attempted))
            self.problems.append(f"{label}: {p['error']}")
            return
        d = digest(p["report"])
        self.digest = self.digest or d
        same = d == self.digest
        if not same:
            self.problems.append(f"{label}: report digest differs from the first pass")
        for i, (name, passed, errs) in enumerate(check_report(p["report"], self.suite)):
            self.problems += [f"{label}: {name}: {e}" for e in errs]
            if not passed:
                self.verdict_fails.add(f"{name}: verdict fail")
            if not passed or errs or not same:
                self.failed_jobs.add(i)

    @property
    def correct(self) -> bool:
        return not self.problems


def setup_probe(config: Path) -> float:
    return float(run_child(str(HERE / "setup_probe.py"), str(config)).stdout.split()[-1])


def import_probe() -> dict:
    """Cumulative import seconds from `python -X importtime`."""
    cumulative = {}
    for line in run_child("-X", "importtime", "-c", "import levyid.cli").stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {
        "setup.scipy_stats_s": cumulative.get("scipy.stats", 0.0),
        # the log nests `levyid` under `levyid.cli`, the statement's own entry
        "setup.import_s": cumulative.get("levyid.cli", 0.0),
    }


def thread_speedup(cli, nproc: int, seed: int) -> dict:
    """sample_paths at SPEEDUP_N rows, --workers 1 time over --workers nproc
    time, per family of the identity workload."""
    from levyid.core import make_grid
    from levyid.processes import sample_paths
    from levyid.randkit import RngStream

    grid = make_grid(cli.DEFAULT_GRID)
    specs = {}
    for _, job in WORKLOADS["identity"].source_jobs():
        process = job["config"]["process"]
        specs.setdefault(process["family"], cli.parse_process(process))
    out = {}
    for family, spec in specs.items():
        times = defaultdict(list)
        for _ in range(SPEEDUP_REPS):
            for workers in (1, nproc):
                start = time.perf_counter()
                sample_paths(RngStream(seed), spec, grid, SPEEDUP_N, workers)
                times[workers].append(time.perf_counter() - start)
        out[f"processes.thread_speedup.{family}"] = (
            statistics.median(times[1]) / statistics.median(times[nproc]))
    return out


def reference_seconds() -> float:
    """Wall time of a fixed numpy kernel (random gathers and row sums, the
    suite's dominant access pattern). Timed before and after every pass, it
    measures the machine's speed during the pass: a shared host's
    throughput drifts by 10-20% over minutes, and the pass/reference ratio
    cancels most of that drift."""
    gen = np.random.default_rng(0)
    x = gen.random(REF_ROWS)
    start = time.perf_counter()
    for _ in range(REF_REPS):
        x[gen.integers(0, REF_ROWS, size=(REF_RESAMPLES, REF_ROWS))].sum(axis=1)
    return time.perf_counter() - start


def end_to_end(cli, config, out, seed, seconds, nproc, gate):
    setup = [setup_probe(config) for _ in range(SETUP_REPS)]
    # the first pass warms caches and lazy imports and sets the report
    # digest; peak RSS is read after it, before any reference kernel runs
    first = run_pass(cli, config, out, seed, nproc)
    gate.record(first, "pass 0")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = []
    before = reference_seconds()
    start = time.perf_counter()
    while not first["error"] and (len(passes) < MIN_PASSES or (
            time.perf_counter() - start
            + statistics.median(p["wall"] for p in passes) <= seconds)):
        p = run_pass(cli, config, out, seed, nproc)
        after = reference_seconds()
        p["ref"] = 0.5 * (before + after)
        before = after
        gate.record(p, f"pass {len(passes) + 1}")
        passes.append(p)
        if p["error"]:
            break
    samples = {
        "wall_ref": [p["wall"] / p["ref"] for p in passes],
        "cpu_ref": [p["cpu"] / p["ref"] for p in passes],
        "setup_s": setup,
        "wall_s": [p["wall"] for p in passes],
        "cpu_s": [p["cpu"] for p in passes],
        "ref_s": [p["ref"] for p in passes],
    }
    metrics = {name: statistics.median(v) for name, v in samples.items() if v}
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["se_rel_gmean"] = se_rel_gmean(first["report"]) if first["report"] else 0.0
    return metrics, samples, first["report"]


def layer_metrics(spans, p: dict) -> dict:
    """Per-layer numbers of one traced pass."""
    agg = totals(spans)

    def self_s(*names):
        return sum(agg[n]["self_s"] for n in names if n in agg)

    def count(key, *names):
        return sum(agg[n][key] for n in names if n in agg)

    layer = defaultdict(float)
    for a in agg.values():
        layer[a["layer"]] += a["self_s"]
    wall = p["wall"]
    main = next(s for s in spans if s.name == "main")
    se = ("weighted_laplace_panel", "bootstrap_mean_se")
    split = ("hidden_values", "visible_values")
    handlers = [n for n in agg if n.startswith("job:")]
    jobs = p["report"]["results"]["jobs"]
    ladders = [j["results"] for j in jobs if j["command"] == "limit"]
    ess = sum(sum(r["ess"]) for r in ladders)
    used = sum(sum(r["n_used"]) for r in ladders)
    rows = count("rows", "values_at")
    return {
        "statlab.se_s": self_s(*se),
        "statlab.se_calls": count("calls", *se),
        "statlab.se_share": self_s(*se) / wall,
        "statlab.resample_cells": count("cells", *se),
        "statlab.resample_bytes": BYTES_PER_CELL * count("cells", *se),
        "statlab.report_s": self_s("build_identity_report"),
        "statlab.self_s": layer["statlab"],
        "processes.sample_s": layer["processes"],
        "processes.rows": rows,
        "processes.rows_per_s": rows / layer["processes"] if layer["processes"] else 0.0,
        "identities.companion_s": self_s("companion_values"),
        "identities.split_s": self_s(*split),
        "identities.rows": count("rows", "companion_values", *split),
        "identities.self_s": layer["identities"],
        "levymeasure.quad_s": self_s("levy_functional_quadrature", "validate_levy_conditions"),
        "levymeasure.quad_calls": count("calls", "levy_functional_quadrature"),
        "levymeasure.mc_s": self_s("levy_functional_mc"),
        "levymeasure.mc_rows": count("rows", "levy_functional_mc"),
        "levymeasure.ess_warnings": sum(w.startswith("effective sample size")
                                        for w in p["warnings"]),
        "levymeasure.self_s": layer["levymeasure"],
        "permanental.chain_s": self_s("sample_local_times"),
        "permanental.chain_rows": count("rows", "sample_local_times"),
        "permanental.field_s": self_s("sample_permanental"),
        "permanental.green_calls": count("calls", "green_matrix"),
        "permanental.green_s": self_s("green_matrix"),
        "permanental.reject_warnings": sum(w.startswith("rejected") for w in p["warnings"]),
        "permanental.self_s": layer["permanental"],
        "limits.thin_s": layer["limits"],
        "limits.rows": count("rows", "thinned_values"),
        "limits.ess_ratio": ess / used if used else 0.0,
        "cli.overhead_s": self_s("main"),
        "cli.handler_s": self_s(*handlers),
        "cli.report_bytes": p["bytes"],
        "trace.wall_s": wall,
        # share of the traced wall inside a module's public function or in
        # main's own code. A handler's self time is code that no public-function
        # span covers; being duration minus the union of child intervals, it
        # stays right when pool-thread spans overlap, where a sum of self
        # times would not.
        "trace.coverage": (main.end - main.start - self_s(*handlers)) / wall,
    }


def per_layer(cli, config, out, seed, seconds, nproc, gate):
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + plain[-1]["wall"] + traced[-1][0]["wall"] <= seconds):
        p = run_pass(cli, config, out, seed, nproc)
        gate.record(p, f"untraced pass {len(plain)}")
        plain.append(p)
        tracer = Tracer()
        with instrument(tracer):
            t = run_pass(cli, config, out, seed, nproc)
        gate.record(t, f"traced pass {len(traced)}")
        traced.append((t, tracer.spans))
        if p["error"] or t["error"]:
            break
    with instrument(Tracer()):
        gate.record(run_pass(cli, config, out, seed, 1), "traced pass at --workers 1")
    report = plain[0]["report"]
    if not gate.correct:
        return {}, {}, report
    layers = [layer_metrics(spans, t) for t, spans in traced]
    # median_low picks a measured pass, so counts stay whole numbers
    metrics = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
    metrics["e2e.wall_s"] = statistics.median(p["wall"] for p in plain)
    metrics["trace.overhead_s"] = (statistics.median(t["wall"] for t, _ in traced)
                                   - metrics["e2e.wall_s"])
    metrics.update(import_probe())
    metrics.update(thread_speedup(cli, nproc, seed))
    return metrics, {"trace.wall_s": [t["wall"] for t, _ in traced]}, report


def git_sha() -> str:
    # the ceiling keeps git from searching directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(workload, suite, report, seed, nproc) -> dict:
    resolved = {j["name"]: j["config"] for j in (report or {}).get("config", {}).get("jobs", [])}
    jobs = []
    for job in suite["jobs"]:
        cfg = resolved.get(job["name"], job["config"])
        jobs.append({
            "name": job["name"], "command": job["command"], "seed": job["config"]["seed"],
            "N": cfg.get("mc", {}).get("N"), "B": cfg.get("mc", {}).get("B"),
            "levy.n": cfg.get("levy", {}).get("n"), "limit.n": cfg.get("limit", {}).get("n"),
            "panel": len(cfg["panel"]) if "panel" in cfg else None,
        })
    return {
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "nproc": nproc,
        "workload": workload.name, "seed": seed, "why": workload.why,
        "config": workload.suite, "config_sha256": workload.config_sha256(),
        "exercises": workload.exercises, "bypasses": workload.bypasses,
        "computed": ["statlab.resample_cells", "statlab.resample_bytes"],
        "jobs": jobs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "levyid" / "__init__.py").is_file() or not (CONFIGS / workload.suite).is_file():
        print(f"perfbench: no levyid sources or configs/{workload.suite} under {ROOT}; "
              "run from a levyid checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from levyid import cli

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    suite = suite_config(workload, args.seed)
    nproc = os.cpu_count() or 1
    work = ROOT / ".perfbench_out" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        config = work / "suite.json"
        config.write_text(json.dumps(suite, indent=1))
        gate = Gate(suite)
        measure = per_layer if args.trace else end_to_end
        metrics, samples, report = measure(cli, config, work / "report.json",
                                           args.seed, args.seconds, nproc, gate)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    print(json.dumps({"meta": metadata(workload, suite, report, args.seed, nproc)}))
    for name, value in metrics.items():
        line = f"{name:42s} {value:.6g}"
        if len(samples.get(name, ())) > 1:
            q1, _, q3 = statistics.quantiles(samples[name], n=4)
            line += f"   (median; q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])})"
        print(line)
    print(f"{'verdict_fail_frac':42s} {gate.failed / gate.attempted:.6g}"
          f"   ({gate.failed} of {gate.attempted} jobs, checked on {gate.passes} passes)")
    for problem in gate.problems + sorted(gate.verdict_fails):
        print(f"perfbench: {problem}", file=sys.stderr)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in wanted if m["name"] in metrics}
    print(json.dumps({"correct": gate.correct and len(result) == len(wanted),
                      "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
