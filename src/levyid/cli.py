"""Command-line front end: config-driven verification runs, JSON reports.

Subcommands
    simulate          sample an ensemble and check first moments
    verify-isonat     size-biased tilting identity, against e^{-kappa} times companion
    verify-condition  hidden + visible decomposition identity
    levy-check        Laplace exponent and jump-measure representations
    permanental       finite-state permanental identity battery
    limit             thinning ladder, each rung against its exact law
    suite             run a list of the above as one batch
    diff              compare two reports outside their timestamp blocks

Reports are JSON tagged "schema": "levy-id/5" and embed the resolved config.
Identical config + seed give byte-identical reports apart from the timestamp
block. The text has a two-space indent, keys sorted as strings, ASCII
escapes, and non-finite floats as the strings "inf", "-inf" and "nan"; it is
byte-equal to json.dumps(..., indent=2, sort_keys=True) of the report so
converted, plus a final newline. Exit codes: 0 all verdicts pass, 1 a
verification failed, 2 config or usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np

from . import permanental
from .core import (
    ConvSpec,
    ExpDecayKernel,
    JumpLaw,
    JumpLawSpec,
    Kernel,
    LevyFunctionalPanel,
    PanelEntry,
    PermanentalSpec,
    PoissonSpec,
    PowerCutoffKernel,
    ProcessSpec,
    SatoSpec,
    TabulatedKernel,
    TemperedStableSpec,
    TimeGrid,
    make_grid,
    mean_function,
)
from .identities import verify_decomposition_identity, verify_tilting_identity
from .levymeasure import laplace_exponent_check, levy_functional_mc
from .limits import verify_thinning_limit
from .permanental import (
    default_state_panel,
    green_matrix,
    levy_functional_permanental,
    local_time_mean,
    marginal_levy_functional,
    permanental_mean,
    sample_permanental,
    verify_permanental_identity,
)
from .processes import sample_paths
from .randkit import RngStream
from .statlab import Check, mean_se

SCHEMA = "levy-id/5"
DEFAULT_GRID = (0.5, 1.0, 1.5, 2.0)
DEFAULT_N = 200_000
DEFAULT_B = 500
DEFAULT_Z = 3.0
REPR_Z = 4.0          # looser gate for the probabilistic nu representations
# the representation block draws at the first mean, and a Poisson job once
# more at the second: the representation does not depend on the mixing law
MIXING_MEANS = (1.0, 5.0)
# base rung size for the thinning ladder; per-rung samples scale as n/delta,
# so every rung's tilted effective sample size is of order n, about
# n / (delta + nu(y(a)^2) / (E psi(a))^2): n / 2 at delta = 1 for Poisson at
# lambda a = 1
DEFAULT_LIMIT_N = 100


class ConfigError(Exception):
    """Malformed or inconsistent configuration input."""


@contextmanager
def _config_errors(what=None):
    """Report a ValueError or TypeError raised on config input as a
    ConfigError, prefixed with `what` when given."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}" if what else str(exc)) from exc


def _get(section, key, default=None, required=False):
    if not isinstance(section, dict):
        raise ConfigError(f"expected an object while looking for {key!r}")
    if key not in section:
        if required:
            raise ConfigError(f"missing config key {key!r}")
        return default
    return section[key]


def _num(value, key):
    if not isinstance(value, bool):  # float(True) is 1.0, but JSON true is no number
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"config key {key!r} must be a number")


def _count(value, key, least=1):
    """A whole number >= least; integral floats such as 5000.0 are accepted
    and JSON integers stay exact (seeds use all 64 bits)."""
    exact = isinstance(value, int) and not isinstance(value, bool)
    x = value if exact else _num(value, key)
    if not (x >= least and (isinstance(x, int) or (math.isfinite(x) and x == int(x)))):
        sign = "positive" if least == 1 else "nonnegative"
        raise ConfigError(f"config key {key!r} must be a {sign} integer")
    return int(x)


def _nums(values, key) -> tuple:
    return tuple(_num(v, key) for v in values)


def _seed(value):
    seed = _count(value, "seed", least=0)
    if seed >= 2**64:
        raise ConfigError("config key 'seed' must fit in 64 bits")
    return seed


def _section(cfg, name, fixed):
    """Config section `name`. The keys in `fixed` name settings every run
    fixes, and a config that sets one is rejected."""
    section = cfg.get(name, {})
    for key in fixed:
        if isinstance(section, dict) and key in section:
            raise ConfigError(f"config key '{name}.{key}' is fixed and cannot be set")
    return section


def _positive(value, key):
    x = _num(value, key)
    if not (math.isfinite(x) and x > 0):
        raise ConfigError(f"config key {key!r} must be positive and finite")
    return x


# kind -> (constructor, numeric keys in argument order)
_LAWS = {
    "exponential": (JumpLaw.exponential, ("mean",)),
    "gamma": (JumpLaw.gamma, ("shape", "rate")),
    "constant": (JumpLaw.constant, ("value",)),
}
_KERNELS = {
    "exp-decay": (ExpDecayKernel, ("decay",)),
    "power-cutoff": (PowerCutoffKernel, ("power", "length")),
}


def _from_table(obj, kind, table, what):
    if kind not in table:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    make, keys = table[kind]
    return make(*(_num(_get(obj, k, required=True), k) for k in keys))


def parse_law(obj) -> JumpLaw:
    kind = _get(obj, "kind", required=True)
    with _config_errors("bad jump law"):
        if kind == "discrete":
            atoms = _get(obj, "atoms", required=True)
            return JumpLaw.discrete(tuple((_num(x, "atoms"), _num(p, "atoms"))
                                          for x, p in atoms))
        return _from_table(obj, kind, _LAWS, "jump-law")


def parse_kernel(obj) -> Kernel:
    kind = _get(obj, "kind", required=True)
    with _config_errors("bad kernel"):
        if kind == "tabulated":
            return TabulatedKernel(_nums(_get(obj, "knots", required=True), "knots"),
                                   _nums(_get(obj, "values", required=True), "values"))
        if kind == "indicator":  # f = 1 on [0, length]: the flat two-knot table
            length = _positive(_get(obj, "length", required=True), "length")
            return TabulatedKernel((0.0, length), (1.0, 1.0))
        return _from_table(obj, kind, _KERNELS, "kernel")


def parse_process(obj) -> ProcessSpec:
    family = _get(obj, "family", required=True)
    with _config_errors("bad process spec"):
        if family == "poisson":
            return PoissonSpec(_num(_get(obj, "lambda", required=True), "lambda"))
        if family == "tempered-stable":
            return TemperedStableSpec(_num(_get(obj, "alpha", required=True), "alpha"))
        if family == "sato":
            bd = _get(obj, "bdlp", required=True)
            if "cutoff" in obj:
                raise ConfigError("sato: 'cutoff' is derived from the sampled times "
                                  "and cannot be set")
            bdlp = JumpLawSpec(
                _num(_get(bd, "rate", required=True), "rate"),
                parse_law(_get(bd, "law", required=True)),
            )
            return SatoSpec(_num(_get(obj, "H", required=True), "H"), bdlp)
        if family == "conv":
            kernel = parse_kernel(_get(obj, "kernel", required=True))
            drv = _get(obj, "driver", required=True)
            if _get(drv, "family", default="") == "tempered-stable":
                z = TemperedStableSpec(_num(_get(drv, "alpha", required=True), "alpha"))
            else:
                z = JumpLawSpec(
                    _num(_get(drv, "rate", required=True), "rate"),
                    parse_law(_get(drv, "law", required=True)),
                )
            return ConvSpec(kernel, z)
        if family == "permanental":
            return PermanentalSpec(
                tuple(_nums(row, "rates") for row in _get(obj, "rates", required=True)),
                _nums(_get(obj, "kill", required=True), "kill"),
                _num(obj.get("beta", 1.0), "beta"),
            )
    raise ConfigError(f"unknown process family {family!r}")


def default_panel(points) -> LevyFunctionalPanel:
    """Six exponential-functional entries spread over the grid."""
    pts = [float(p) for p in points]
    t0, tl = pts[0], pts[-1]
    tm = pts[(len(pts) - 1) // 2]
    entries = (
        PanelEntry((1.0,), (tm,)),
        PanelEntry((0.5,), (tl,)),
        PanelEntry((2.0,), (t0,)),
        PanelEntry((0.7, 0.9), (t0, tl)),
        PanelEntry(tuple(0.25 for _ in pts), tuple(pts)),
        PanelEntry((0.4, 1.1), (tm, tl)),
    )
    return LevyFunctionalPanel(entries)


def parse_panel(obj, points) -> LevyFunctionalPanel:
    if obj is None:
        return default_panel(points)
    with _config_errors("bad panel"):
        return LevyFunctionalPanel(tuple(
            PanelEntry(_nums(_get(e, "alphas", required=True), "alphas"),
                       _nums(_get(e, "times", required=True), "times"))
            for e in obj
        ))


def _parse_mc(cfg):
    """N, z_crit and the resolved mc block. B is still parsed and echoed,
    but standard errors are linearized and do not resample."""
    mc = cfg.get("mc", {})
    n = _count(_get(mc, "N", DEFAULT_N), "N")
    b = _count(_get(mc, "B", DEFAULT_B), "B")
    z_crit = _positive(_get(mc, "z_crit", DEFAULT_Z), "z_crit")
    return n, z_crit, {"N": n, "B": b, "z_crit": z_crit, "se": "linearized"}


def _parse_grid(cfg) -> TimeGrid:
    with _config_errors("bad grid"):
        return make_grid(_nums(cfg.get("grid", DEFAULT_GRID), "grid"))


def _parse_a(cfg, grid: TimeGrid) -> float:
    pts = list(grid.points)
    a = _get(cfg.get("identity", {}), "a", pts[(len(pts) - 1) // 2])
    a = _num(a, "a")
    if not grid.contains(a):
        raise ConfigError(f"identity point a={a} is not a grid point")
    return a


def _grid_job(cfg, pinned):
    """Parse the sections every time-indexed job shares: process, grid, the
    pin a (when `pinned`, else None), panel and mc. Returns (spec, grid, a,
    panel, N, z_crit, resolved), resolved being their report config block."""
    spec = parse_process(_get(cfg, "process", required=True))
    if isinstance(spec, PermanentalSpec):
        raise ConfigError("this command works on time-indexed families; "
                          "use the 'permanental' subcommand")
    grid = _parse_grid(cfg)
    a = _parse_a(cfg, grid) if pinned else None
    panel = parse_panel(cfg.get("panel"), grid.points)
    off_grid = [t for e in panel for t in e.times if not grid.contains(t)]
    if off_grid:
        raise ConfigError(f"panel time {off_grid[0]} is not a grid point")
    n, z_crit, mc = _parse_mc(cfg)
    resolved = {"process": cfg["process"], "grid": list(grid.points),
                "panel": panel.rows(), "mc": mc}
    if pinned:
        resolved["identity"] = {"a": a}
    return spec, grid, a, panel, n, z_crit, resolved


def _sampler_notes(spec: ProcessSpec) -> dict:
    """Report notes for paths the sampler draws only approximately."""
    if isinstance(spec, ConvSpec) and spec.approximate:
        return {"approximate": True}
    return {}


def _column_means(draws, expected, name, labels, z_crit, **check) -> Check:
    """Column means of draws (`mean_se` of each column) against exact
    expectations, gated per column; row k is labelled {name: labels[k]}."""
    mean, se = np.array([mean_se(col) for col in draws.T]).T
    rows = [{name: label, "sample_mean": m, "se": s, "expected": e} for label, m, s, e
            in zip(labels, mean.tolist(), se.tolist(), expected.tolist())]
    return Check(mean, se, expected, 0.0, z_crit, rows=rows, fields={"n": len(draws)},
                 **check)


def _report_csv(check: Check, *lead):
    """One CSV row per Check row: the row fields named in `lead`, the row's
    index, its panel entry, both sides, z and pass."""
    cols = ["alphas", "times", "lhs", "lhs_se", "rhs", "rhs_se", "z", "pass"]
    rows = [[*(row[c] for c in lead), k,
             *(";".join(f"{x:g}" for x in row[c]) for c in cols[:2]),
             *(row[c] for c in cols[2:])]
            for k, row in enumerate(check.to_dict()["entries"])]
    return [*lead, "entry", *cols], rows


# one handler per subcommand; each returns (resolved_config, results, ok, csv)

def _cmd_simulate(cfg, seed):
    spec = parse_process(_get(cfg, "process", required=True))
    n, z_crit, mc = _parse_mc(cfg)
    resolved = {"process": cfg["process"], "mc": mc}
    rng = RngStream(seed)
    if isinstance(spec, PermanentalSpec):
        green = green_matrix(spec)
        draws = sample_permanental(rng.substream(0), green, spec.beta, size=n)
        expected = permanental_mean(green, spec.beta)
        labels = [f"state_{j}" for j in range(spec.n)]
    else:
        grid = _parse_grid(cfg)
        draws = sample_paths(rng.substream(0), spec, grid, n)
        expected = np.array([mean_function(spec, t) for t in grid.points])
        labels = [f"t_{t:g}" for t in grid.points]
        resolved["grid"] = list(grid.points)
    moments = _column_means(draws, expected, "point", labels, z_crit, key="moments",
                            notes=_sampler_notes(spec))
    # rows are built only when --csv writes them
    csv_payload = (["path"] + labels,
                   ([i] + list(row) for i, row in enumerate(draws)))
    return resolved, moments.to_dict(), moments.overall_pass, csv_payload


def _identity_command(cfg, seed, identity):
    spec, grid, a, panel, n, z_crit, resolved = _grid_job(cfg, pinned=True)
    # looked up per call, so a rebinding of the module attribute (a test
    # double, the benchmark tracer) takes effect
    verifier = {"tilting": verify_tilting_identity,
                "decomposition": verify_decomposition_identity}[identity]
    report = verifier(RngStream(seed), spec, a, grid, panel, n, z_crit=z_crit)
    report.notes.update(_sampler_notes(spec))
    return resolved, report.to_dict(), report.overall_pass, _report_csv(report)


def _cmd_levy_check(cfg, seed):
    spec, _, _, panel, n, z_crit, resolved = _grid_job(cfg, pinned=False)
    # split_a is rejected too: levy-check runs no restriction split
    levy = _section(cfg, "levy", ("mixing_mean", "theta", "split_a"))
    n_mc = _count(_get(levy, "n", max(1, n // 2)), "n")
    rng = RngStream(seed)

    lap = laplace_exponent_check(rng.substream(0), spec, panel, n, z_crit=z_crit)
    lap.notes.update(_sampler_notes(spec))

    # lap.rhs holds the unrestricted quadrature of each entry, with SE 0; one
    # draw per mixing mean, on substream (10, 0) and (12, 0), serves every
    # entry's representation, and each is gated against that quadrature
    means = MIXING_MEANS if isinstance(spec, PoissonSpec) else MIXING_MEANS[:1]
    rows = []
    for tag, mean in zip((10, 12), means):
        mc, mc_se = levy_functional_mc(rng.substream(tag, 0), spec, panel, n_mc,
                                       mixing_mean=mean)
        named = {"mixing_mean": mean} if len(means) > 1 else {}
        rows += [{**row, **named, "mc": m, "mc_se": se, "quadrature": quad}
                 for row, m, se, quad in zip(panel.rows(), mc.tolist(), mc_se.tolist(),
                                             lap.rhs.tolist())]
    reprs = Check(*([row[c] for row in rows] for c in ("mc", "mc_se", "quadrature")), 0.0,
                  REPR_Z, fields={"z_crit": REPR_Z, "n": n_mc}, rows=rows)

    results = {"laplace_exponent": lap.to_dict(), "representation": reprs.to_dict()}
    ok = all(block["pass"] for block in results.values())
    resolved["levy"] = {"n": n_mc}
    return resolved, results, ok, _report_csv(lap)


def _cmd_permanental(cfg, seed):
    spec = parse_process(_get(cfg, "process", required=True))
    if not isinstance(spec, PermanentalSpec):
        raise ConfigError("the permanental command needs a permanental process")
    green = green_matrix(spec)
    n, z_crit, mc = _parse_mc(cfg)
    a = _count(_get(cfg.get("identity", {}), "a", 0), "a", least=0)
    if a >= spec.n:
        raise ConfigError(f"identity state a={a} must be a state index")
    panel_cfg = cfg.get("panel")
    panel = (default_state_panel(spec.n, a) if panel_cfg is None
             else parse_panel(panel_cfg, range(spec.n)))
    for entry in panel:
        for t in entry.times:
            if t not in range(spec.n):  # NaN and infinity are in no range
                raise ConfigError(f"panel state {t} out of range")
    rng = RngStream(seed)

    # the identity's pinned local times, on its own substream 3, serve the
    # local-time means too; looked up on the module, so a rebinding there (a
    # test double, the benchmark tracer) reaches both checks
    local = permanental.sample_local_times(rng.substream(0, 3), spec, a, size=n)
    report = verify_permanental_identity(rng.substream(0), spec, a, panel,
                                         n, z_crit=z_crit, local=local)

    loc = _column_means(local, local_time_mean(green, a), "state", range(spec.n), z_crit,
                        key="states")

    # one draw, on substream (2, 0), serves every state's marginal
    n_nu = min(n, 50_000)
    singles = LevyFunctionalPanel(tuple(PanelEntry((1.0,), (float(x),))
                                        for x in range(spec.n)))
    est, se = levy_functional_permanental(rng.substream(2, 0), spec, np.ones(spec.n),
                                          singles, n_nu)
    oracles = [float(marginal_levy_functional(green, 1.0, x)) for x in range(spec.n)]
    marg = Check(est, se, oracles, 0.0, REPR_Z,
                 key="states", fields={"z_crit": REPR_Z, "n": n_nu},
                 rows=[{"state": x, "mc": e, "mc_se": s, "oracle": o}
                       for x, (e, s, o) in enumerate(zip(est.tolist(), se.tolist(), oracles))])

    checks = {"identity": report, "local_time_means": loc, "levy_marginals": marg}
    resolved = {"process": cfg["process"], "identity": {"a": a},
                "panel": panel.rows(), "mc": mc}
    return (resolved, {name: c.to_dict() for name, c in checks.items()},
            all(c.overall_pass for c in checks.values()), _report_csv(report))


def _cmd_limit(cfg, seed):
    spec, grid, a, panel, _, z_crit, resolved = _grid_job(cfg, pinned=True)
    # the ladder has its own base size, limit.n: rung k draws about
    # n/delta_k paths, so N is not echoed
    del resolved["mc"]["N"]
    # the ladder and its rung cap are the library's defaults
    lim = _section(cfg, "limit", ("deltas", "n_max"))
    n = _count(_get(lim, "n", DEFAULT_LIMIT_N), "n")
    report = verify_thinning_limit(RngStream(seed), spec, a, grid, panel, n, z_crit=z_crit)
    resolved["limit"] = {"n": n}
    return resolved, report.to_dict(), report.overall_pass, _report_csv(report, "delta")


def _cmd_suite(cfg, seed):
    jobs = _get(cfg, "jobs", required=True)
    if not isinstance(jobs, list) or not jobs:
        raise ConfigError("suite config needs a nonempty 'jobs' list")
    job_results, resolved_jobs, rows = [], [], []
    all_ok = True
    for j, job in enumerate(jobs):
        name = str(_get(job, "name", f"job{j}"))
        command = _get(job, "command", required=True)
        if not isinstance(command, str) or command not in _JOB_HANDLERS:
            raise ConfigError(f"job {name!r}: unknown command {command!r}")
        jcfg = _get(job, "config", required=True)
        jseed = _seed(_get(jcfg, "seed", seed + j + 1))
        started = time.perf_counter()
        resolved, results, ok, _ = _JOB_HANDLERS[command](jcfg, jseed)
        all_ok &= ok
        # main moves the runtime into the timestamp block
        job_results.append({"name": name, "command": command, "seed": jseed,
                            "results": results,
                            "verdict": "pass" if ok else "fail",
                            "runtime_seconds": round(time.perf_counter() - started, 3)})
        resolved_jobs.append({"name": name, "command": command,
                              "config": {**resolved, "seed": jseed}})
        rows.append([name, command, "pass" if ok else "fail"])
    results = {"jobs": job_results, "pass": bool(all_ok)}
    resolved = {"jobs": resolved_jobs}
    return resolved, results, bool(all_ok), (["job", "command", "verdict"], rows)


_JOB_HANDLERS = {
    "simulate": _cmd_simulate,
    "verify-isonat": functools.partial(_identity_command, identity="tilting"),
    "verify-condition": functools.partial(_identity_command, identity="decomposition"),
    "levy-check": _cmd_levy_check,
    "permanental": _cmd_permanental,
    "limit": _cmd_limit,
}
_HANDLERS = {**_JOB_HANDLERS, "suite": _cmd_suite}


_NUMPY_SCALARS = (np.floating, np.integer, np.bool_)
_escape = json.encoder.encode_basestring_ascii
_STR = {str}


def _scalar(x):
    """x with a numpy scalar unwrapped, and a non-finite float as its repr
    string ('inf', '-inf', 'nan'): strict JSON has no inf/nan."""
    if isinstance(x, _NUMPY_SCALARS):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def _json_text(obj) -> str:
    """obj as report text in one pass: two-space indent, keys sorted as
    strings, ASCII escapes, numpy scalars and arrays unwrapped, non-finite
    floats written as the strings "inf", "-inf" and "nan". Byte-equal to
    json.dumps(..., indent=2, sort_keys=True) of obj so converted. Beside
    numpy values, only the exact types dict, list, tuple, str, int, float,
    bool and None are written; any other type, a subclass of one of them
    included, raises TypeError."""
    chunks = []
    add = chunks.append
    isfinite = math.isfinite
    frepr = float.__repr__

    def write(o, pad):
        t = type(o)
        if t is float:
            add(frepr(o) if isfinite(o) else _escape(repr(o)))
        elif t is str:
            add(_escape(o))
        elif t is dict:
            if not o:
                add("{}")
                return
            if not _STR.issuperset(map(type, o)):  # some key is no plain str
                o = {str(k): v for k, v in o.items()}
            inner = pad + "  "
            sep = "{" + inner
            for k in sorted(o):
                add(sep + _escape(k) + ": ")
                write(o[k], inner)
                sep = "," + inner
            add(pad + "}")
        elif t is list or t is tuple:
            if not o:
                add("[]")
                return
            inner = pad + "  "
            sep = "[" + inner
            for v in o:
                if type(v) is float and isfinite(v):  # the common leaf, inline
                    add(sep + frepr(v))
                else:
                    add(sep)
                    write(v, inner)
                sep = "," + inner
            add(pad + "]")
        elif t is int:
            add(int.__repr__(o))
        elif t is bool:
            add("true" if o else "false")
        elif o is None:
            add("null")
        elif isinstance(o, np.ndarray):
            write(o.tolist(), pad)
        elif isinstance(o, _NUMPY_SCALARS):
            write(o.item(), pad)
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    write(obj, "\n")
    return "".join(chunks)


def load_config(path, what="config") -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} root must be a JSON object")
    return cfg


def _leaves(obj, path="$"):
    """(path, value) at each leaf of a JSON value, empty containers included."""
    if isinstance(obj, (dict, list)) and obj:
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _leaves(v, f"{path}.{k}" if isinstance(obj, dict) else f"{path}[{k}]")
    else:
        yield path, obj


def _diff(path_a, path_b) -> int:
    """0 when two reports agree outside their timestamp blocks, else 1 with
    each differing path and both values printed; 1 and 1.0 differ."""
    try:
        a, b = (load_config(p, "report") for p in (path_a, path_b))
    except ConfigError as exc:
        print(f"levyid: diff: {exc}", file=sys.stderr)
        return 2
    for r in (a, b):
        r.pop("timestamp", None)
    a, b = ({p: json.dumps(v) for p, v in _leaves(r)} for r in (a, b))
    changed = [p for p in {**a, **b} if a.get(p) != b.get(p)]
    _write_stdout(f"{p}: {a.get(p, '(absent)')} -> {b.get(p, '(absent)')}\n" for p in changed)
    return 1 if changed else 0


def _write_stdout(chunks):
    """Write each chunk to stdout. A reader that closes the pipe early, as
    `| head` does, ends the output but not the command."""
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit; send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write_csv(path, payload):
    header, rows = payload
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_scalar(x) for x in row])


@functools.cache  # built on the first call; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyid",
        description="Monte-Carlo checks of jump-measure identities for "
                    "nonnegative infinitely divisible processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "sample an ensemble and check first moments",
        "verify-isonat": "size-biased tilting identity",
        "verify-condition": "hidden + visible decomposition identity",
        "levy-check": "Laplace exponent and jump-measure representation checks",
        "permanental": "finite-state permanental identity battery",
        "limit": "thinning ladder, each rung against its exact law",
        "suite": "run a batch of jobs from one config",
    }
    for name, text in helps.items():
        q = sub.add_parser(name, help=text)
        q.add_argument("--config", metavar="PATH", help="JSON config file")
        q.add_argument("--seed", metavar="U64", type=int,
                       help="master seed; overrides the config's seed")
        q.add_argument("--out", metavar="PATH",
                       help="write the JSON report here instead of stdout")
        # ignored, since every ensemble is drawn on the calling thread; kept
        # while perfbench/run.py still passes it
        q.add_argument("--workers", metavar="N", type=int, default=0,
                       help="ignored; kept for compatibility")
        q.add_argument("--csv", metavar="PATH", help="also write result rows as CSV")
    sub.add_parser("diff", help="compare two reports outside their timestamp blocks"
                   ).add_argument("reports", nargs=2, metavar="REPORT")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "diff":
        return _diff(*args.reports)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config)
        seed = _seed(args.seed if args.seed is not None else cfg.get("seed", 0))
        if args.workers < 0:
            raise ConfigError("--workers must be nonnegative")
        # the library raises ValueError/TypeError on inputs it cannot run
        with _config_errors():
            resolved, results, ok, csv_payload = _HANDLERS[args.command](cfg, seed)
    except ConfigError as exc:
        print(f"levyid: config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an input the size checks let through can still ask for more memory
        # than the machine has; that is bad input too, not a crash
        print(f"levyid: config error: out of memory: {exc}", file=sys.stderr)
        return 2
    timestamp = {
        "utc": datetime.now(timezone.utc).isoformat(),
        "runtime_seconds": round(time.perf_counter() - started, 3),
    }
    if args.command == "suite":
        # wall times differ from run to run, so they stay out of the results
        timestamp["jobs"] = [{"name": job["name"], "runtime_seconds": job.pop("runtime_seconds")}
                             for job in results["jobs"]]
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "config": resolved,
        "seed": seed,
        "results": results,
        "verdict": "pass" if ok else "fail",
        "timestamp": timestamp,
    }
    text = _json_text(report) + "\n"
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            _write_stdout([text])
        if args.csv:
            _write_csv(args.csv, csv_payload)
    except OSError as exc:
        print(f"levyid: cannot write output: {exc}", file=sys.stderr)
        return 2
    if not ok:
        print(f"levyid: {args.command}: verification failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
