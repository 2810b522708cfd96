"""Workload table, suite-config generation and the per-run correctness gate.

The jobs are read from the shipped suite configs, configs/suite_desk.json
and configs/suite_smoke.json: each desk job goes to the workload that takes
its command. Every job keeps its position in its source suite, and its seed
is pinned to suite seed + position + 1, the seed it gets when the full
suite runs at that suite seed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# the desk suite's own seed; used when --seed is not given
DEFAULT_SEED = 20260816


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    exercises: str
    bypasses: str
    suite: str                          # suite config file under configs/
    commands: tuple[str, ...] | None    # job commands taken; None takes every job
    # overrides applied to every job's mc.N and levy-check's levy.n; None
    # keeps the config's value
    n: int | None = None
    levy_n: int | None = None
    # (job name, mc.N, mc.B) of jobs run at their own sizes
    sized: tuple[tuple[str, int, int], ...] = ()

    def source_jobs(self) -> list:
        """(position in the source suite, job) of every job this workload takes."""
        jobs = json.loads((CONFIGS / self.suite).read_text())["jobs"]
        return [(i, job) for i, job in enumerate(jobs)
                if self.commands is None or job["command"] in self.commands]

    def config_sha256(self) -> str:
        return hashlib.sha256((CONFIGS / self.suite).read_bytes()).hexdigest()


# Desk sizes (N=200k identity, 100k levy) take 30-100 s per workload, more
# than one benchmark run may last, so the desk workloads run at 5k-10k rows
# with the desk's B=500: many passes fit in a run and the bootstrap still
# dominates. At those sizes the sampler makes one chunk (processes.CHUNK is
# 50k rows) and the bootstrap one resample block (statlab's cell budget is
# 5M), so the poisson pair runs at N=60k, B=100: two sampler chunks, run on
# the thread pool when --workers > 1, and two resample blocks.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "identity",
            why="the 8 desk tilting/decomposition jobs, 4 families: the large-N "
                "path of ratio bootstrap SEs, samplers and companion/hidden/visible",
            exercises="statlab ratio SE (chunked on the poisson pair), processes "
                      "samplers (threaded on the poisson pair), identities companions",
            bypasses="levymeasure, permanental and limits do not run",
            suite="suite_desk.json",
            commands=("verify-isonat", "verify-condition"),
            n=5_000,
            sized=(("poisson-tilting", 60_000, 100), ("poisson-decomposition", 60_000, 100)),
        ),
        Workload(
            "levy",
            why="the 4 desk levy-check jobs: the only workload running levymeasure "
                "quadrature, restriction splits and plain-mean bootstrap SEs",
            exercises="levymeasure quadrature and MC representations, statlab mean SE",
            bypasses="identities companions, permanental and limits do not run",
            suite="suite_desk.json",
            commands=("levy-check",),
            n=5_000,
            levy_n=5_000,
        ),
        Workload(
            "permanental-limit",
            why="the 3 desk permanental and 2 limit jobs: killed-chain simulation, "
                "Gaussian fields and the thinned ladder's sparse tilting weights",
            exercises="permanental chains and fields, limits ladder, statlab on sparse weights",
            bypasses="levymeasure quadrature and identities hidden/visible do not run",
            suite="suite_desk.json",
            commands=("permanental", "limit"),
            n=10_000,
        ),
        Workload(
            "smoke",
            why="the smoke suite as shipped: small inputs where fixed per-job costs "
                "(config parsing, pools, quadrature, report building) show",
            exercises="cli config resolution and report writing, every layer lightly",
            bypasses="nothing large: no layer runs at desk size",
            suite="suite_smoke.json",
            commands=None,
        ),
    )
}


def suite_config(workload: Workload, seed: int) -> dict:
    """The suite config the program receives for this workload and seed."""
    sized = {name: (n, b) for name, n, b in workload.sized}
    jobs = []
    for index, job in workload.source_jobs():
        job = copy.deepcopy(job)
        cfg = job["config"]
        cfg["seed"] = seed + index + 1
        if workload.n is not None and "N" in cfg.get("mc", {}):
            cfg["mc"]["N"] = workload.n
        if workload.levy_n is not None and job["command"] == "levy-check":
            cfg.setdefault("levy", {})["n"] = workload.levy_n
        if job["name"] in sized:
            cfg["mc"]["N"], cfg["mc"]["B"] = sized[job["name"]]
        jobs.append(job)
    missing = sized.keys() - {job["name"] for job in jobs}
    if missing:
        raise ValueError(f"{workload.name}: no jobs named {sorted(missing)}")
    return {"seed": seed, "jobs": jobs}


def digest(report: dict) -> str:
    """sha256 of the report outside its timestamp block."""
    body = {k: v for k, v in report.items() if k != "timestamp"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _sizes(cfg: dict) -> dict:
    return {
        "N": cfg.get("mc", {}).get("N"),
        "B": cfg.get("mc", {}).get("B"),
        "levy.n": cfg.get("levy", {}).get("n"),
        "limit.n": cfg.get("limit", {}).get("n"),
    }


def check_report(report: dict, suite: dict) -> list:
    """(job name, verdict passed, broken checks) for every job of `suite`.

    A check breaks when the job is missing from the report, or when its
    seed or resolved sizes differ from the generated config's.
    """
    got = {j["name"]: j for j in report.get("results", {}).get("jobs", [])}
    resolved = {j["name"]: j for j in report.get("config", {}).get("jobs", [])}
    out = []
    for job in suite["jobs"]:
        name, cfg = job["name"], job["config"]
        res, rcfg = got.get(name), resolved.get(name, {}).get("config", {})
        if res is None:
            out.append((name, False, ["missing from the report"]))
            continue
        errs = []
        if res.get("seed") != cfg["seed"] or rcfg.get("seed") != cfg["seed"]:
            errs.append(f"seed {res.get('seed')} is not the pinned {cfg['seed']}")
        want = {k: v for k, v in _sizes(cfg).items() if v is not None}
        have = {k: v for k, v in _sizes(rcfg).items() if k in want}
        if have != want:
            errs.append(f"resolved sizes {have} are not {want}")
        out.append((name, res.get("verdict") == "pass", errs))
    return out


def _se_pairs(node):
    """(se, estimate) pairs of every reported entry: lhs/rhs/mc SEs and the
    limit ladder's distance SEs."""
    if isinstance(node, dict):
        for key in ("lhs", "rhs", "mc"):
            if f"{key}_se" in node and key in node:
                yield node[f"{key}_se"], node[key]
        if "distances" in node and "distance_ses" in node:
            yield from zip(node["distance_ses"], node["distances"])
        for v in node.values():
            yield from _se_pairs(v)
    elif isinstance(node, list):
        for v in node:
            yield from _se_pairs(v)


def se_rel_gmean(report: dict) -> float:
    """Geometric mean of se / |estimate| over entries with nonzero SE."""
    logs = [
        math.log(se / abs(est))
        for se, est in _se_pairs(report.get("results", {}))
        if isinstance(se, float) and isinstance(est, float) and se > 0 and est != 0
    ]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0
