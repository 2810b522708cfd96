import csv
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import levyid
from levyid import cli
from levyid.cli import (
    ConfigError,
    default_panel,
    load_config,
    main,
    parse_kernel,
    parse_law,
    parse_process,
)
from levyid.core import (
    ConvSpec,
    PoissonSpec,
    PowerCutoffKernel,
    SatoSpec,
    TemperedStableSpec,
)
from levyid.levymeasure import levy_functional_quadrature
from levyid.permanental import green_matrix, marginal_levy_functional

from conftest import report_diff


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _src_env():
    """The environment for a child interpreter that imports this checkout's
    package."""
    src = str(Path(levyid.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _run(tmp_path, args, config=None, name="report.json"):
    argv = list(args)
    if config is not None:
        argv += ["--config", _write(tmp_path, "cfg.json", config)]
    out = tmp_path / name
    argv += ["--out", str(out)]
    code = main(argv)
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestParsers:
    def test_parse_law_kinds(self):
        assert parse_law({"kind": "exponential", "mean": 2.0}).mean == pytest.approx(2.0)
        assert parse_law({"kind": "gamma", "shape": 2.0, "rate": 4.0}).mean == pytest.approx(0.5)
        assert parse_law({"kind": "constant", "value": 0.3}).mean == pytest.approx(0.3)
        law = parse_law({"kind": "discrete", "atoms": [[1.0, 0.25], [2.0, 0.75]]})
        assert law.mean == pytest.approx(1.75)

    def test_parse_law_errors(self):
        with pytest.raises(ConfigError):
            parse_law({"kind": "cauchy"})
        with pytest.raises(ConfigError):
            parse_law({"kind": "exponential"})
        with pytest.raises(ConfigError):
            parse_law("exponential")

    def test_parse_kernel_kinds(self):
        assert parse_kernel({"kind": "indicator", "length": 2.0}).integral(3.0) == pytest.approx(2.0)
        assert parse_kernel({"kind": "exp-decay", "decay": 1.0}).integral(1e9) == pytest.approx(1.0)
        k = parse_kernel({"kind": "power-cutoff", "power": 0.5, "length": 1.0})
        # f(u) = (1 + u)^(-1/2): integral over [0, 1] is 2 (sqrt(2) - 1)
        assert k.integral(1.0) == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0))
        k = parse_kernel({"kind": "tabulated", "knots": [0.0, 1.0], "values": [1.0, 0.0]})
        assert k.integral(1.0) == pytest.approx(0.5)

    def test_parse_kernel_errors(self):
        with pytest.raises(ConfigError):
            parse_kernel({"kind": "triangle"})
        with pytest.raises(ConfigError):
            parse_kernel({"kind": "indicator"})

    def test_parse_process_families(self):
        assert isinstance(parse_process({"family": "poisson", "lambda": 1.0}), PoissonSpec)
        assert isinstance(parse_process({"family": "tempered-stable", "alpha": 0.5}), TemperedStableSpec)
        sato = parse_process({
            "family": "sato", "H": 1.0,
            "bdlp": {"rate": 1.0, "law": {"kind": "exponential", "mean": 1.0}},
        })
        assert isinstance(sato, SatoSpec)
        conv = parse_process({
            "family": "conv",
            "kernel": {"kind": "indicator", "length": 2.0},
            "driver": {"rate": 1.0, "law": {"kind": "constant", "value": 1.0}},
        })
        assert isinstance(conv, ConvSpec)
        conv_ts = parse_process({
            "family": "conv",
            "kernel": {"kind": "indicator", "length": 2.0},
            "driver": {"family": "tempered-stable", "alpha": 0.5},
        })
        assert conv_ts.approximate

    def test_parse_process_errors(self):
        with pytest.raises(ConfigError):
            parse_process({"family": "brownian"})
        with pytest.raises(ConfigError):
            parse_process({})
        with pytest.raises(ConfigError):
            parse_process({"family": "poisson", "lambda": -1.0})

    def test_default_panel_on_grid(self):
        panel = default_panel((0.5, 1.0, 1.5, 2.0))
        assert len(panel) == 6
        times = {t for e in panel for t in e.times}
        assert times <= {0.5, 1.0, 1.5, 2.0}

    def test_load_config(self, tmp_path):
        p = _write(tmp_path, "c.json", {"a": 1})
        assert load_config(p) == {"a": 1}
        assert load_config(None) == {}
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(bad))
        lst = tmp_path / "list.json"
        lst.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(lst))


BASE = {
    "process": {"family": "poisson", "lambda": 1.0},
    "identity": {"a": 1.0},
    "mc": {"N": 20_000, "B": 150},
    "seed": 11,
}


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        code, rep = _run(tmp_path, ["verify-isonat"], BASE)
        assert code == 0
        assert rep["verdict"] == "pass"

    def test_config_error_is_two(self, tmp_path, capsys):
        code, _ = _run(tmp_path, ["verify-isonat"], {"process": {"family": "nope"}})
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err

    def test_missing_config_file_is_two(self, tmp_path, capsys):
        code = main(["verify-isonat", "--config", str(tmp_path / "ghost.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_verification_failure_is_one(self, tmp_path, capsys):
        # an absurdly small critical value forces statistical failure
        cfg = dict(BASE, mc={"N": 20_000, "B": 150, "z_crit": 0.001})
        code, rep = _run(tmp_path, ["verify-isonat"], cfg)
        assert code == 1
        assert rep["verdict"] == "fail"
        assert "fail" in capsys.readouterr().err

    def test_unknown_family_message_names_field(self, tmp_path, capsys):
        code, _ = _run(tmp_path, ["verify-isonat"], {"process": {"family": "brownian"}})
        assert code == 2
        assert "brownian" in capsys.readouterr().err


class TestReportShape:
    def test_schema_and_fields(self, tmp_path):
        code, rep = _run(tmp_path, ["verify-isonat"], BASE)
        assert code == 0
        assert rep["schema"] == "levy-id/3"
        assert rep["command"] == "verify-isonat"
        assert rep["seed"] == 11
        assert "config" in rep and "results" in rep
        assert rep["config"]["process"]["family"] == "poisson"
        assert "utc" in rep["timestamp"]
        assert rep["timestamp"]["runtime_seconds"] >= 0

    def test_resolved_config_fills_defaults(self, tmp_path):
        code, rep = _run(tmp_path, ["verify-isonat"], BASE)
        assert code == 0
        cfg = rep["config"]
        assert "grid" in cfg and "panel" in cfg
        assert cfg["mc"]["N"] == 20_000

    def test_stdout_when_no_out(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "cfg.json", BASE)
        code = main(["verify-isonat", "--config", cfg_path])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["schema"] == "levy-id/3"


class TestDeterminism:
    @pytest.mark.parametrize("argv,cfg", [
        (["verify-isonat"], BASE),
        (["verify-condition"], BASE),
        (["levy-check"], dict(BASE, mc={"N": 10_000, "B": 100}, levy={"n": 10_000})),
    ], ids=["isonat", "condition", "levy"])
    def test_repeat_runs_identical(self, tmp_path, argv, cfg):
        code1, _ = _run(tmp_path, argv, cfg, "r1.json")
        code2, _ = _run(tmp_path, argv, cfg, "r2.json")
        assert code1 == code2 == 0
        assert report_diff(tmp_path / "r1.json", tmp_path / "r2.json") == ""

    # the indicator kind is parsed as the flat two-knot table, so the two
    # reports differ only where they echo the kernel's config
    @pytest.mark.parametrize("command", ["simulate", "verify-isonat", "verify-condition",
                                         "levy-check", "limit"])
    def test_indicator_report_is_the_two_knot_table(self, tmp_path, command):
        outs = []
        for name, kernel in (("ind.json", {"kind": "indicator", "length": 1.5}),
                             ("tab.json", {"kind": "tabulated", "knots": [0, 1.5],
                                           "values": [1, 1]})):
            cfg = dict(BASE, process=_conv_kernel(**kernel), grid=[0.5, 1.0, 2.0],
                       mc={"N": 2000}, levy={"n": 500}, limit={"n": 50})
            assert _run(tmp_path, [command], cfg, name)[1] is not None
            outs.append(tmp_path / name)
        paths = [line.split(":")[0] for line in report_diff(*outs).splitlines()]
        assert paths and all(p.startswith("$.config.") for p in paths), paths

    def test_worker_flag_does_not_change_results(self, tmp_path):
        cfgp = _write(tmp_path, "cfg.json", BASE)
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify-isonat", "--config", cfgp, "--workers", "1", "--out", str(o1)]) == 0
        assert main(["verify-isonat", "--config", cfgp, "--workers", "4", "--out", str(o2)]) == 0
        assert report_diff(o1, o2) == ""

    def test_seed_flag_overrides_config(self, tmp_path):
        cfgp = _write(tmp_path, "cfg.json", BASE)
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify-isonat", "--config", cfgp, "--seed", "99", "--out", str(o1)]) == 0
        assert main(["verify-isonat", "--config", cfgp, "--out", str(o2)]) == 0
        r1, r2 = json.loads(o1.read_text()), json.loads(o2.read_text())
        assert r1["seed"] == 99 and r2["seed"] == 11
        assert r1["results"] != r2["results"]


class TestCsv:
    def test_identity_csv(self, tmp_path):
        cfgp = _write(tmp_path, "cfg.json", BASE)
        out, table = tmp_path / "r.json", tmp_path / "r.csv"
        code = main(["verify-isonat", "--config", cfgp, "--out", str(out), "--csv", str(table)])
        assert code == 0
        rows = list(csv.reader(table.read_text().splitlines()))
        assert rows[0] == ["entry", "alphas", "times", "lhs", "lhs_se", "rhs", "rhs_se", "z", "pass"]
        assert len(rows) == 1 + len(json.loads(out.read_text())["results"]["entries"])

    def test_limit_csv(self, tmp_path):
        cfg = {
            "process": {"family": "poisson", "lambda": 1.0},
            "identity": {"a": 1.0},
            "limit": {"n": 100},
            "mc": {"B": 200},
            "seed": 3,
        }
        cfgp = _write(tmp_path, "cfg.json", cfg)
        out, table = tmp_path / "r.json", tmp_path / "r.csv"
        code = main(["limit", "--config", cfgp, "--out", str(out), "--csv", str(table)])
        assert code == 0
        rows = list(csv.reader(table.read_text().splitlines()))
        # the identity commands' columns, led by each row's rung
        assert rows[0] == ["delta", "entry", "alphas", "times", "lhs", "lhs_se", "rhs",
                           "rhs_se", "z", "pass"]
        rep = json.loads(out.read_text())
        entries = rep["results"]["entries"]
        assert len(rows) == 1 + len(entries) == 1 + 4 * 6  # rungs x default panel
        assert [float(r[0]) for r in rows[1:]] == [e["delta"] for e in entries]
        assert rep["config"]["limit"]["n"] == 100
        assert rep["results"]["n_used"] == [100, 334, 1000, 3334]


class TestSimulate:
    def test_moment_report(self, tmp_path):
        cfg = {
            "process": {"family": "tempered-stable", "alpha": 0.5},
            "grid": [0.5, 1.0],
            "mc": {"N": 30_000},
            "seed": 5,
        }
        code, rep = _run(tmp_path, ["simulate"], cfg)
        assert code == 0
        res = rep["results"]
        assert len(res["moments"]) == 2
        assert all(m["pass"] for m in res["moments"])
        assert res["moments"][0]["expected"] == pytest.approx(0.25)

    def test_simulate_csv_raw_draws(self, tmp_path):
        cfg = {
            "process": {"family": "poisson", "lambda": 1.0},
            "grid": [1.0],
            "mc": {"N": 50},
            "seed": 5,
        }
        cfgp = _write(tmp_path, "cfg.json", cfg)
        out, table = tmp_path / "r.json", tmp_path / "r.csv"
        code = main(["simulate", "--config", cfgp, "--out", str(out), "--csv", str(table)])
        assert code == 0
        rows = table.read_text().splitlines()
        assert len(rows) == 51

    def test_permanental_simulate(self, tmp_path):
        cfg = {
            "process": {
                "family": "permanental",
                "rates": [[0.0, 1.0], [1.0, 0.0]],
                "kill": [0.5, 0.25],
            },
            "mc": {"N": 30_000},
            "seed": 8,
        }
        code, rep = _run(tmp_path, ["simulate"], cfg)
        assert code == 0
        assert len(rep["results"]["moments"]) == 2

    def test_single_draw_gives_zero_se(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, rep = _run(tmp_path, ["simulate"], dict(BASE, mc={"N": 1}))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        moments = rep["results"]["moments"]
        assert all(m["se"] == 0.0 for m in moments)
        assert all(m["z"] != "nan" for m in moments)


class TestPermanentalCommand:
    def test_full_run(self, tmp_path):
        cfg = {
            "process": {
                "family": "permanental",
                "rates": [[0.0, 1.0], [1.0, 0.0]],
                "kill": [0.5, 0.25],
            },
            "identity": {"a": 0},
            "mc": {"N": 30_000, "B": 150},
            "seed": 4,
        }
        code, rep = _run(tmp_path, ["permanental"], cfg)
        assert code == 0
        res = rep["results"]
        assert res["identity"]["pass"]
        assert res["local_time_means"]["pass"]
        assert res["levy_marginals"]["pass"]
        assert all(s["pass"] for s in res["levy_marginals"]["states"])

    def test_rejects_time_indexed_process(self, tmp_path, capsys):
        code, _ = _run(tmp_path, ["permanental"], BASE)
        assert code == 2
        assert "permanental" in capsys.readouterr().err


class TestGridSpecRouting:
    def test_permanental_rejected_by_isonat(self, tmp_path, capsys):
        cfg = {
            "process": {
                "family": "permanental",
                "rates": [[0.0, 1.0], [1.0, 0.0]],
                "kill": [0.5, 0.25],
            },
        }
        code, _ = _run(tmp_path, ["verify-isonat"], cfg)
        assert code == 2
        assert "permanental" in capsys.readouterr().err

    def test_panel_off_grid_rejected(self, tmp_path, capsys):
        cfg = dict(BASE, panel=[{"alphas": [1.0], "times": [0.77]}])
        code, _ = _run(tmp_path, ["verify-isonat"], cfg)
        assert code == 2
        assert "grid" in capsys.readouterr().err


class TestSuite:
    def _suite_cfg(self):
        return {
            "seed": 21,
            "jobs": [
                {"name": "tilt", "command": "verify-isonat", "config": BASE},
                {
                    "name": "lim",
                    "command": "limit",
                    "config": {
                        "process": {"family": "poisson", "lambda": 1.0},
                        "identity": {"a": 1.0},
                        "limit": {"n": 100},
                        "mc": {"B": 200},
                    },
                },
            ],
        }

    def test_suite_runs_jobs(self, tmp_path):
        code, rep = _run(tmp_path, ["suite"], self._suite_cfg())
        assert code == 0
        assert rep["command"] == "suite"
        jobs = rep["results"]["jobs"]
        assert [j["name"] for j in jobs] == ["tilt", "lim"]
        assert all(j["verdict"] == "pass" for j in jobs)

    def test_suite_deterministic(self, tmp_path):
        code1, rep1 = _run(tmp_path, ["suite"], self._suite_cfg())
        code2, rep2 = _run(tmp_path, ["suite"], self._suite_cfg())
        assert code1 == code2 == 0
        for rep in (rep1, rep2):
            # per-job wall times live in the timestamp block only
            stamps = rep.pop("timestamp")["jobs"]
            assert [s["name"] for s in stamps] == ["tilt", "lim"]
            assert all(s["runtime_seconds"] >= 0 for s in stamps)
            assert all("runtime_seconds" not in j for j in rep["results"]["jobs"])
        assert rep1 == rep2

    def test_suite_csv(self, tmp_path):
        cfgp = _write(tmp_path, "cfg.json", self._suite_cfg())
        out, table = tmp_path / "r.json", tmp_path / "r.csv"
        code = main(["suite", "--config", cfgp, "--out", str(out), "--csv", str(table)])
        assert code == 0
        rows = list(csv.reader(table.read_text().splitlines()))
        assert rows[0] == ["job", "command", "verdict"]
        assert len(rows) == 3

    def test_suite_without_jobs_is_config_error(self, tmp_path, capsys):
        code, _ = _run(tmp_path, ["suite"], {"jobs": []})
        assert code == 2
        assert "job" in capsys.readouterr().err

    def test_suite_propagates_failure(self, tmp_path):
        cfg = self._suite_cfg()
        cfg["jobs"][0]["config"] = dict(BASE, mc={"N": 20_000, "B": 150, "z_crit": 0.001})
        code, rep = _run(tmp_path, ["suite"], cfg)
        assert code == 1
        jobs = rep["results"]["jobs"]
        assert jobs[0]["verdict"] == "fail"
        assert rep["verdict"] == "fail"


SATO = {"family": "sato", "H": 1.0,
        "bdlp": {"rate": 1.0, "law": {"kind": "exponential", "mean": 1.0}}}
PERM = {"family": "permanental", "rates": [[0.0, 1.0], [1.0, 0.0]], "kill": [0.5, 0.25]}
CONV_TS = {"family": "conv", "kernel": {"kind": "exp-decay", "decay": 1.0},
           "driver": {"family": "tempered-stable", "alpha": 0.5}}
CONV_JUMP_1E5 = {"family": "conv", "kernel": {"kind": "exp-decay", "decay": 1.0},
                 "driver": {"rate": 1e5, "law": {"kind": "exponential", "mean": 1.0}}}

# a chain from state 0 that is expected to jump about 2e6 times before it is
# killed, beyond the simulation's step budget
NEAR_RECURRENT = {"process": dict(PERM, kill=[1e-6, 0.0], beta=1.0), "identity": {"a": 0},
                  "mc": {"N": 10}}

# inputs the samplers cannot draw, caught before drawing, each with the config
# key its diagnostic names: a Poisson jump-count mean past numpy's limit
# (lambda * t, or the Sato driver's rate over a span set by H and the grid),
# a tempered-stable span needing too many sub-steps (alpha != 1/2) or drawing
# increments too large to square (alpha = 1/2), a driver jump set past
# the jump budget, a killed chain past the step budget, or a draw too small
# for any path to have psi(a) > 0, which leaves nothing to tilt
SAMPLER_LIMITS = {
    "lambda-overflow-simulate": (["simulate"], dict(BASE, process={"family": "poisson",
                                                                   "lambda": 1e300},
                                                    mc={"N": 10}), "'lambda'"),
    "lambda-overflow-levy": (["levy-check"], dict(BASE, process={"family": "poisson",
                                                                 "lambda": 1e300},
                                                  mc={"N": 10}), "'lambda'"),
    "sato-H-overflow": (["simulate"], {"process": dict(SATO, H=1e300), "mc": {"N": 10}}, "'H'"),
    "grid-overflow": (["simulate"], dict(BASE, grid=[1e300], mc={"N": 10}), "'grid'"),
    "ts-grid-overflow": (["simulate"], dict(BASE, process={"family": "tempered-stable",
                                                           "alpha": 0.5},
                                            grid=[1e300], mc={"N": 10}), "'grid'"),
    "ts-grid-1e6": (["simulate"], dict(BASE, process={"family": "tempered-stable",
                                                      "alpha": 0.6},
                                       grid=[1e6], mc={"N": 10}), "'grid'"),
    "ts-conv-grid-overflow": (["simulate"], dict(BASE, process=CONV_TS, grid=[1e300],
                                                 mc={"N": 10}), "'grid'"),
    "sato-rate-1e12": (["simulate"], {"process": dict(SATO, bdlp=dict(SATO["bdlp"], rate=1e12)),
                                      "mc": {"N": 10}}, "'rate'"),
    # both sides of an identity check drawn at once, two chunks each
    **{f"conv-rate-1e5-{argv}": ([argv], {"process": CONV_JUMP_1E5, "identity": {"a": 1.0},
                                          "mc": {"N": 60_000}}, "'rate'")
       for argv in ("verify-isonat", "verify-condition")},
    "chain-near-recurrent": (["permanental"], NEAR_RECURRENT, "'kill'"),
    "no-tilted-path-isonat": (["verify-isonat"], {"process": {"family": "poisson", "lambda": 1.0},
                                                  "identity": {"a": 0.5}, "mc": {"N": 1},
                                                  "seed": 1}, "'mc.N'"),
    "no-tilted-path-limit": (["limit"], {"process": {"family": "poisson", "lambda": 0.01},
                                         "identity": {"a": 0.5}, "seed": 3}, "'limit.n'"),
}


def _conv_kernel(**kernel):
    return {"family": "conv", "kernel": kernel,
            "driver": {"rate": 1.0, "law": {"kind": "exponential", "mean": 1.0}}}


def _sato_law(**law):
    return dict(SATO, bdlp={"rate": 1.0, "law": law})


# kernel and jump-law kind -> (word the diagnostic names, process with x in
# that parameter); NaN and infinity pass a bare `<= 0` check
NONFINITE = {
    "indicator": ("length", lambda x: _conv_kernel(kind="indicator", length=x)),
    "exp-decay": ("decay", lambda x: _conv_kernel(kind="exp-decay", decay=x)),
    "power-cutoff": ("power", lambda x: _conv_kernel(kind="power-cutoff", power=x, length=1.0)),
    "tabulated-knots": ("knots", lambda x: _conv_kernel(kind="tabulated", knots=[0.0, x],
                                                        values=[1.0, 1.0])),
    "tabulated-values": ("values", lambda x: _conv_kernel(kind="tabulated", knots=[0.0, 1.0],
                                                          values=[1.0, x])),
    "exponential": ("mean", lambda x: _sato_law(kind="exponential", mean=x)),
    "gamma": ("shape", lambda x: _sato_law(kind="gamma", shape=x, rate=1.0)),
    "constant": ("value", lambda x: _sato_law(kind="constant", value=x)),
    "discrete": ("atom", lambda x: _sato_law(kind="discrete", atoms=[[x, 1.0]])),
}


class TestBadInputExitsTwo:
    """Bad input, whether caught while parsing or raised by the library
    while running, exits 2 with one diagnostic line; each case runs as a
    separate process so a traceback would show on stderr."""

    @pytest.mark.parametrize("argv,cfg", [
        (["levy-check"], dict(BASE, mc={"N": 200}, levy={"n": 100, "split_a": [-1]})),
        (["permanental"], {"process": dict(PERM, kill=[0.0, 0.0]), "mc": {"N": 200}}),
        (["levy-check"], {"process": dict(SATO, cutoff=0.1), "mc": {"N": 200},
                          "levy": {"n": 100}}),
        (["simulate"], {"process": dict(SATO, cutoff=0.1), "mc": {"N": 200}}),
        (["levy-check"], dict(BASE, mc={"N": 200}, levy={"n": "abc"})),
        (["levy-check"], dict(BASE, mc={"N": 200}, levy={"n": 0})),
        (["levy-check"], dict(BASE, mc={"N": 200}, levy={"n": 2.5})),
        (["levy-check"], dict(BASE, mc={"N": 200}, levy={"n": 100, "split_a": 2})),
        # json.dumps writes these as the non-standard Infinity and NaN tokens,
        # which json.load accepts
        (["verify-isonat"], dict(BASE, mc={"N": 200, "z_crit": math.inf})),
        (["verify-isonat"], dict(BASE, mc={"N": 200, "z_crit": math.nan})),
        (["simulate"], dict(BASE, mc={"N": 200}, seed="x")),
        (["simulate"], dict(BASE, mc={"N": 200}, seed=None)),
        (["simulate"], dict(BASE, mc={"N": 200}, seed=[])),
        (["simulate"], dict(BASE, mc={"N": 200}, seed=2.5)),
        (["simulate"], dict(BASE, mc={"N": 200}, seed=2**64)),
        (["suite"], {"jobs": [{"command": "simulate",
                               "config": dict(BASE, mc={"N": 200}, seed="x")}]}),
        (["permanental"], {"process": PERM, "mc": {"N": 200}, "identity": {"a": "x"}}),
        (["simulate"], dict(BASE, mc={"N": 2.5})),
        (["simulate"], dict(BASE, mc={"N": 200, "B": 2.5})),
        (["limit"], dict(BASE, limit={"n": "x"})),
        (["limit"], dict(BASE, limit={"n": 2.5})),
        (["limit"], dict(BASE, limit={"n_max": "x"})),
        (["limit"], dict(BASE, limit={"n_max": 2.5})),
        (["limit"], dict(BASE, limit={"deltas": 2.5})),
        (["levy-check"], dict(BASE, mc={"N": 200}, levy={"n": 100, "mixing_mean": -1})),
        (["levy-check"], dict(BASE, mc={"N": 200}, levy={"n": 100, "theta": -1})),
        # float(True) and isinstance(True, int) would read a JSON true as 1
        (["simulate"], dict(BASE, process={"family": "poisson", "lambda": True},
                            mc={"N": 200})),
        (["simulate"], dict(BASE, mc={"N": True})),
        (["simulate"], dict(BASE, mc={"N": 200}, seed=True)),
        (["verify-isonat"], dict(BASE, grid=[True, 2.0], mc={"N": 200})),
        # the chain checks live in PermanentalSpec, which parse_process builds
        (["permanental"], {"process": dict(PERM, rates=[[1.0, 1.0], [1.0, 0.0]]),
                           "mc": {"N": 200}}),
        (["permanental"], {"process": dict(PERM, rates=[[0.0, 1.0], [2.0, 0.0]]),
                           "mc": {"N": 200}}),
        (["simulate"], {"process": dict(PERM, kill=[0.5, -0.25]), "mc": {"N": 200}}),
        (["simulate"], {"process": dict(PERM, kill=[math.nan, 0.25]), "mc": {"N": 200}}),
        (["permanental"], {"process": dict(PERM, rates=[[0.0, math.inf], [math.inf, 0.0]]),
                           "mc": {"N": 200}}),
        (["simulate"], {"process": dict(SATO, cutoff=math.nan), "mc": {"N": 200}}),
        (["verify-condition"], dict(BASE, process={"family": "tempered-stable", "alpha": 0.5},
                                    identity={"a": math.inf}, mc={"N": 200})),
        (["permanental"], {"process": PERM, "mc": {"N": 200},
                           "panel": [{"alphas": [1.0], "times": [math.nan]}]}),
        (["simulate", "--workers", "-3"], dict(BASE, mc={"N": 200})),
        *(case[:2] for case in SAMPLER_LIMITS.values()),
        (["simulate"], dict(BASE, process={"family": "poisson", "rate": 1.0},
                            mc={"N": 10})),
        # TypeError: a TS-driven moving average has no thinning rule
        (["limit"], dict(BASE, process=CONV_TS, limit={"n": 10})),
    ], ids=["split_a-negative", "kill-all-zero", "sato-cutoff-levy", "sato-cutoff-simulate",
            "levy-n-string", "levy-n-zero", "levy-n-fraction", "split_a-scalar",
            "z_crit-inf", "z_crit-nan", "seed-string", "seed-null", "seed-list",
            "seed-fraction", "seed-above-64-bits", "job-seed-string",
            "permanental-a-string", "N-fraction", "B-fraction", "limit-n-string",
            "limit-n-fraction", "limit-n_max-string", "limit-n_max-fraction",
            "limit-deltas-scalar", "mixing_mean-negative", "theta-negative",
            "lambda-true", "N-true", "seed-true", "grid-entry-true", "chain-diagonal-nonzero",
            "chain-asymmetric", "chain-kill-negative", "chain-kill-nan", "chain-rates-inf",
            "sato-cutoff-nan", "identity-a-inf", "permanental-panel-state-nan",
            "workers-negative", *SAMPLER_LIMITS, "poisson-rate-alias", "limit-ts-conv"])
    def test_exit_two_one_line(self, tmp_path, argv, cfg):
        proc = subprocess.run(
            [sys.executable, "-m", "levyid", *argv,
             "--config", _write(tmp_path, "cfg.json", cfg), "--out", os.devnull],
            capture_output=True, text=True, env=_src_env(), timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("levyid: config error:")

    @pytest.mark.parametrize("kind", NONFINITE)
    @pytest.mark.parametrize("x", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_parameter_names_it(self, tmp_path, kind, x):
        word, process = NONFINITE[kind]
        proc = subprocess.run(
            [sys.executable, "-m", "levyid", "simulate", "--config",
             _write(tmp_path, "cfg.json", {"process": process(x), "mc": {"N": 10}}),
             "--out", os.devnull],
            capture_output=True, text=True, env=_src_env(), timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("levyid: config error:")
        assert word in lines[0]

    def test_power_cutoff_nan_rejected_when_built(self):
        # a NaN power would make the reach sampler of verify-isonat reject
        # every candidate forever, so this is checked on the kernel itself
        for args in ((math.nan, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="power|length"):
                PowerCutoffKernel(*args)

    def test_power_cutoff_large_power_ends(self, tmp_path):
        # the companion's reach comes from its inverse CDF in one draw; a
        # rejection sampler from a uniform envelope would almost never accept
        # at this power. At N = 1000 no path sees a jump close enough to a to
        # weigh more than 0, so the run may also exit 2, saying so on one line
        cfg = {"process": _conv_kernel(kind="power-cutoff", power=1e7, length=1.0),
               "grid": [0.5, 1.0, 1.5, 2.0], "identity": {"a": 1.0}, "mc": {"N": 1000}}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "levyid", "verify-isonat",
             "--config", _write(tmp_path, "cfg.json", cfg), "--out", os.devnull],
            capture_output=True, text=True, env=_src_env(), timeout=60,
        )
        assert time.perf_counter() - start < 30
        assert proc.returncode in (0, 1, 2), proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) <= 1

    def test_config_not_utf8(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        proc = subprocess.run(
            [sys.executable, "-m", "levyid", "simulate", "--config", str(path),
             "--out", os.devnull],
            capture_output=True, text=True, env=_src_env(), timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("levyid: config error:")

    # each at the value every run uses: setting a fixed key at all is the error
    @pytest.mark.parametrize("command,section,key,value", [
        ("levy-check", "levy", "mixing_mean", 1.0),
        ("levy-check", "levy", "theta", 1.0),
        ("levy-check", "levy", "split_a", [0.5, 1.0, 2.0]),
        ("limit", "limit", "deltas", [1.0, 0.3, 0.1, 0.03]),
        ("limit", "limit", "n_max", 2_000_000),
    ], ids=["levy.mixing_mean", "levy.theta", "levy.split_a", "limit.deltas", "limit.n_max"])
    def test_fixed_key_names_the_key(self, tmp_path, capsys, command, section, key, value):
        cfg = dict(BASE, mc={"N": 200}, **{section: {"n": 20, key: value}})
        assert main([command, "--config", _write(tmp_path, "cfg.json", cfg),
                     "--out", os.devnull]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and f"'{section}.{key}'" in lines[0]

    @pytest.mark.parametrize("argv,cfg,key", SAMPLER_LIMITS.values(), ids=list(SAMPLER_LIMITS))
    def test_sampler_limit_names_the_key(self, tmp_path, capsys, argv, cfg, key):
        cfg_path = _write(tmp_path, "cfg.json", cfg)
        assert main([*argv, "--config", cfg_path, "--out", os.devnull]) == 2
        assert key in capsys.readouterr().err

    def test_half_ts_long_step_runs_to_a_verdict(self, tmp_path):
        # the exact alpha = 1/2 sampler draws a step of any length at once;
        # only alpha != 1/2 has the sub-step bound of ts-grid-1e6
        cfg = dict(BASE, process={"family": "tempered-stable", "alpha": 0.5},
                   grid=[1e6], mc={"N": 10})
        code, rep = _run(tmp_path, ["simulate"], cfg)
        assert code in (0, 1)
        assert rep["verdict"] == ("pass" if code == 0 else "fail")
        assert rep["config"]["grid"] == [1e6]

    def test_near_recurrent_chain_fails_fast(self, tmp_path):
        # rejected before drawing, not after the step budget runs out
        cfg_path = _write(tmp_path, "cfg.json", NEAR_RECURRENT)
        started = time.perf_counter()
        assert main(["permanental", "--config", cfg_path, "--out", os.devnull]) == 2
        assert time.perf_counter() - started < 1.0

    def test_out_of_memory_is_two(self, tmp_path, capsys, monkeypatch):
        def handler(cfg, seed):
            raise MemoryError("Unable to allocate 1005. TiB for an array")

        monkeypatch.setitem(cli._HANDLERS, "simulate", handler)
        cfg_path = _write(tmp_path, "cfg.json", dict(BASE, mc={"N": 10}))
        assert main(["simulate", "--config", cfg_path, "--out", os.devnull]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("levyid: config error: out of memory:")

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_path(self, tmp_path, flag):
        argv = ["--out", os.devnull, flag, str(tmp_path / "missing" / "r.json")]
        proc = subprocess.run(
            [sys.executable, "-m", "levyid", "simulate",
             "--config", _write(tmp_path, "cfg.json", dict(BASE, mc={"N": 10})), *argv],
            capture_output=True, text=True, env=_src_env(), timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("levyid: cannot write output:")


class TestZeroSeVerdicts:
    """Every verdict goes through statlab.compare: with zero SEs, values that
    agree to rounding pass and values that differ fail."""

    LEVY = dict(BASE, mc={"N": 2000}, levy={"n": 100})

    def test_representation_equal_to_rounding_passes(self, tmp_path, monkeypatch):
        def exact(rng, spec, panel, n, mixing_mean=1.0, theta=1.0):
            est = np.array([levy_functional_quadrature(spec, e) for e in panel])
            return np.nextafter(est, np.inf), np.zeros(len(panel))

        monkeypatch.setattr(cli, "levy_functional_mc", exact)
        _, rep = _run(tmp_path, ["levy-check"], self.LEVY)
        reprs = rep["results"]["representation"]
        assert reprs["pass"]
        assert all(e["z"] == 0.0 for e in reprs["entries"])

    def test_mixing_invariance_unequal_exact_values_fail(self, tmp_path, monkeypatch):
        def exact(rng, spec, panel, n, mixing_mean=1.0, theta=1.0):
            return np.full(len(panel), 0.1 * mixing_mean), np.zeros(len(panel))

        monkeypatch.setattr(cli, "levy_functional_mc", exact)
        code, rep = _run(tmp_path, ["levy-check"], self.LEVY)
        mix = rep["results"]["mixing_invariance"]
        assert code == 1 and not mix["pass"]
        assert all(e["z"] == "inf" for e in mix["entries"])

    def test_mixing_invariance_reuses_the_representation_draw(self, tmp_path):
        # the mean-1 side is the representation block's estimate, not a
        # second draw of the same estimator
        _, rep = _run(tmp_path, ["levy-check"], self.LEVY)
        reprs = rep["results"]["representation"]["entries"]
        mix = rep["results"]["mixing_invariance"]["entries"]
        assert len(mix) == len(reprs) == 6
        assert all(m["lhs"] == r["mc"] for m, r in zip(mix, reprs))

    def test_permanental_marginal_equal_to_oracle_passes(self, tmp_path, monkeypatch):
        def exact(rng, chain, m_weights, panel, n):
            g = green_matrix(chain)
            return (np.array([marginal_levy_functional(g, 1.0, int(entry.times[0]))
                              for entry in panel]), np.zeros(len(panel)))

        monkeypatch.setattr(cli, "levy_functional_permanental", exact)
        cfg = {"process": PERM, "identity": {"a": 0}, "mc": {"N": 2000}, "seed": 4}
        _, rep = _run(tmp_path, ["permanental"], cfg)
        marg = rep["results"]["levy_marginals"]
        assert marg["pass"]
        assert all(s["z"] == 0.0 for s in marg["states"])


def _gated_blocks(node, path="$"):
    """(path, block, rows) for every object in a report that holds a list of
    rows each carrying z and pass."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        sub = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
        if (isinstance(node, dict) and isinstance(value, list) and value
                and all(isinstance(r, dict) and {"z", "pass"} <= r.keys() for r in value)):
            yield sub, node, value
        if isinstance(value, (dict, list)):
            yield from _gated_blocks(value, sub)


def _pass_blocks(results, path="$.results"):
    """(path, block) for the results object, or each object under it, that
    carries pass; rows inside a block's lists are not blocks."""
    if "pass" in results:
        yield path, results
        return
    for key, value in results.items():
        if isinstance(value, dict):
            yield from _pass_blocks(value, f"{path}.{key}")


class TestOneVerdictRule:
    """Every z-gated block of a report follows one rule. A row passes when
    |z| is at most the block's z_crit, or the job's mc.z_crit where the block
    reports none. The block passes when every |z| is at most its
    bonferroni_z, or that row value where it reports none."""

    def _check(self, results, z_crit):
        blocks = list(_gated_blocks(results))
        for path, block, rows in blocks:
            crit = float(block.get("z_crit", z_crit))
            gate = float(block.get("bonferroni_z", crit))
            zs = [abs(float(r["z"])) for r in rows]  # inf is written as "inf"
            assert [r["pass"] for r in rows] == [z <= crit for z in zs], path
            assert block["pass"] == all(z <= gate for z in zs), path
        return [path for path, _, _ in blocks]

    def test_smoke_suite(self, tmp_path):
        out = tmp_path / "smoke.json"
        cfg = Path(__file__).resolve().parents[1] / "configs" / "suite_smoke.json"
        assert main(["suite", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        paths = []
        for job, resolved in zip(rep["results"]["jobs"], rep["config"]["jobs"]):
            paths += self._check(job["results"], resolved["config"]["mc"]["z_crit"])
        # two tilting and one decomposition identity, levy-check's
        # laplace_exponent and representation, permanental's identity,
        # local_time_means and levy_marginals, and the thinning ladder
        assert len(paths) == 9, paths

    # N = 1 and a small z_crit make rows and blocks that fail; at seed 3 the
    # tight permanental identity passes its Bonferroni gate with failing rows
    @pytest.mark.parametrize("command,cfg", [
        ("simulate", dict(BASE, mc={"N": 2000})),
        ("simulate", dict(BASE, mc={"N": 1})),
        ("simulate", {"process": PERM, "mc": {"N": 2000, "z_crit": 0.2}}),
        ("permanental", {"process": PERM, "mc": {"N": 2000}}),
        ("permanental", {"process": PERM, "mc": {"N": 2000, "z_crit": 0.5}}),
    ], ids=["simulate", "simulate-one-draw", "simulate-permanental-tight",
            "permanental", "permanental-tight"])
    def test_single_report(self, tmp_path, command, cfg):
        _, rep = _run(tmp_path, [command, "--seed", "3"], cfg)
        paths = self._check(rep["results"], rep["config"]["mc"]["z_crit"])
        assert len(paths) == (1 if command == "simulate" else 3), paths

    # every block that carries pass is a Check, with z on each row
    @pytest.mark.parametrize("command,cfg", [
        ("simulate", dict(BASE, mc={"N": 2000})),
        ("verify-isonat", dict(BASE, mc={"N": 2000})),
        ("verify-condition", dict(BASE, mc={"N": 2000})),
        ("levy-check", dict(BASE, mc={"N": 2000}, levy={"n": 500})),
        ("permanental", {"process": PERM, "mc": {"N": 2000}}),
        ("limit", dict(BASE, limit={"n": 100})),
    ])
    def test_every_pass_block_is_a_check(self, tmp_path, command, cfg):
        _, rep = _run(tmp_path, [command, "--seed", "3"], cfg)
        gated = [block for _, block, _ in _gated_blocks(rep["results"])]
        blocks = list(_pass_blocks(rep["results"]))
        assert blocks
        for path, block in blocks:
            assert any(block is g for g in gated), path


def _desk_job(name):
    suite = json.loads((Path(__file__).resolve().parents[1]
                        / "configs" / "suite_desk.json").read_text())
    return next(job["config"] for job in suite["jobs"] if job["name"] == name)


class TestLevyCheckDraws:
    """A levy-check job draws its sampled representations once for the whole
    panel, and a Poisson job once more at the second mixing mean."""

    @pytest.mark.parametrize("name,streams", [
        ("poisson-levy", [(10, 0), (12, 0)]), ("ts-levy", [(10, 0)]),
        ("sato-levy", [(10, 0)]), ("conv-levy", [(10, 0)]),
    ])
    def test_one_draw_per_mixing_mean(self, monkeypatch, name, streams):
        calls = []
        real = cli.levy_functional_mc

        def counting(rng, *args, **kwargs):
            calls.append(rng.path)
            return real(rng, *args, **kwargs)

        monkeypatch.setattr(cli, "levy_functional_mc", counting)
        cfg = dict(_desk_job(name), mc={"N": 2000}, levy={"n": 500})
        _, results, _, _ = cli._cmd_levy_check(cfg, 3)
        assert calls == streams
        assert len(results["representation"]["entries"]) == 6


class TestDiff:
    REPORT = {"schema": "levy-id/1", "results": {"entries": [{"z": 0.5, "pass": True}]},
              "verdict": "pass", "timestamp": {"utc": "then"}}

    def _diff(self, tmp_path, capsys, a, b):
        code = main(["diff", _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)])
        out, err = capsys.readouterr()
        return code, out.splitlines(), err.splitlines()

    def test_equal_outside_timestamp(self, tmp_path, capsys):
        other = dict(self.REPORT, timestamp={"utc": "now", "runtime_seconds": 1.0})
        assert self._diff(tmp_path, capsys, self.REPORT, other) == (0, [], [])

    def test_each_changed_path_on_its_own_line(self, tmp_path, capsys):
        other = dict(self.REPORT, results={"entries": [{"z": 1, "pass": True}, {}]},
                     verdict="fail")
        code, out, _ = self._diff(tmp_path, capsys, self.REPORT, other)
        assert code == 1
        # the type counts: 0.5 -> 1 and 1.0 -> 1 are both changes
        assert out == ['$.results.entries[0].z: 0.5 -> 1', '$.verdict: "pass" -> "fail"',
                       "$.results.entries[1]: (absent) -> {}"]

    def test_two_real_reports(self, tmp_path, capsys):
        cfg = dict(BASE, mc={"N": 500})
        paths = [str(tmp_path / f"{k}.json") for k in range(3)]
        for path, seed in zip(paths, ("5", "5", "6")):
            main(["verify-isonat", "--config", _write(tmp_path, "cfg.json", cfg),
                  "--seed", seed, "--out", path])
        capsys.readouterr()
        assert main(["diff", paths[0], paths[1]]) == 0
        assert main(["diff", paths[0], paths[2]]) == 1
        assert "$.seed: 5 -> 6" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("content", [None, b"{nope", b"\xff\xfe{}", b"[1, 2]"],
                             ids=["missing", "not-json", "not-utf8", "not-object"])
    def test_bad_input_exits_two_with_one_line(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_bytes(content)
        good = _write(tmp_path, "good.json", self.REPORT)
        for argv in ([str(bad), good], [good, str(bad)]):
            assert main(["diff", *argv]) == 2
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 1
            assert err.startswith("levyid: diff:")


class TestClosedStdout:
    """A reader that closes the pipe early, as `| head` does, ends the
    output but not the command: no traceback, and the usual exit code."""

    @staticmethod
    def _closed_stdout(tmp_path, args, lines):
        """Run levyid in a child whose reader reads `lines` lines, then closes
        the pipe; return the exit code and what went to stderr."""
        err = tmp_path / "stderr.txt"
        with open(err, "wb") as fh:
            proc = subprocess.Popen([sys.executable, "-m", "levyid", *args],
                                    stdout=subprocess.PIPE, stderr=fh, env=_src_env())
            head = [proc.stdout.readline() for _ in range(lines)]
            proc.stdout.close()
            code = proc.wait(timeout=120)
        return code, head, err.read_text()

    def test_diff_ends_quietly(self, tmp_path):
        # far more diff lines than a pipe buffer holds, so the writer meets
        # the closed pipe in the middle of its output
        a, b = ({"results": {f"k{i}": v for i in range(10_000)}} for v in (0, 1))
        code, head, err = self._closed_stdout(
            tmp_path, ["diff", _write(tmp_path, "a.json", a), _write(tmp_path, "b.json", b)], 1)
        assert head == [b"$.results.k0: 0 -> 1\n"]
        assert (code, err) == (1, "")

    def test_report_ends_quietly(self, tmp_path):
        # the reader is gone before the report is written
        cfg = _write(tmp_path, "cfg.json", dict(BASE, mc={"N": 500}))
        code, _, err = self._closed_stdout(tmp_path, ["verify-isonat", "--config", cfg], 0)
        assert (code, err) == (0, "")


class TestApproximateFlag:
    """A moving average driven by a tempered stable subordinator is sampled
    from grid increments, and its report says so."""

    @pytest.mark.parametrize("command,block", [
        ("verify-condition", None), ("simulate", None), ("levy-check", "laplace_exponent"),
    ])
    def test_ts_driven_conv_flagged(self, tmp_path, command, block):
        cfg = dict(BASE, process=CONV_TS, mc={"N": 2000}, levy={"n": 200})
        code, rep = _run(tmp_path, [command], cfg)
        assert code in (0, 1)
        res = rep["results"] if block is None else rep["results"][block]
        assert res["notes"]["approximate"] is True

    def test_exact_sampler_not_flagged(self, tmp_path):
        # the tilting block always has notes: its LHS estimator and weights
        _, rep = _run(tmp_path, ["verify-isonat"], BASE)
        assert "approximate" not in rep["results"]["notes"]


class TestResolvedMc:
    def test_se_method_recorded_and_b_echoed(self, tmp_path):
        _, rep = _run(tmp_path, ["verify-isonat"], BASE)
        assert rep["config"]["mc"]["se"] == "linearized"
        assert rep["config"]["mc"]["B"] == 150

    def test_b_has_no_effect(self, tmp_path):
        _, r1 = _run(tmp_path, ["verify-isonat"], BASE)
        _, r2 = _run(tmp_path, ["verify-isonat"], dict(BASE, mc={"N": 20_000, "B": 7}))
        assert r1["results"] == r2["results"]


class TestResolvedConfigFixedPoint:
    """The config a report echoes is complete: run back with the same seed it
    gives the same report."""

    # every value differs from its default, so a section left out of the
    # echo changes the second report
    SMALL = dict(BASE, grid=[0.5, 1.0, 2.0], identity={"a": 0.5},
                 mc={"N": 500, "B": 10, "z_crit": 2.5})

    @pytest.mark.parametrize("command,cfg", [
        ("simulate", SMALL),
        ("simulate", {"process": PERM, "mc": {"N": 500}}),
        ("verify-isonat", SMALL),
        ("verify-condition", dict(SMALL, process=SATO)),
        ("levy-check", dict(SMALL, levy={"n": 200})),
        ("permanental", {"process": dict(PERM, beta=0.5), "identity": {"a": 1},
                         "mc": {"N": 500, "z_crit": 2.5}}),
        ("limit", dict(SMALL, limit={"n": 20})),
        ("suite", {"jobs": [{"name": "j", "command": "verify-isonat", "config": SMALL}]}),
    ], ids=["simulate", "simulate-permanental", "isonat", "condition", "levy",
            "permanental", "limit", "suite"])
    def test_echoed_config_reproduces_report(self, tmp_path, command, cfg):
        code1, rep1 = _run(tmp_path, [command, "--seed", "5"], cfg, "r1.json")
        code2, _ = _run(tmp_path, [command, "--seed", "5"], rep1["config"], "r2.json")
        assert code1 == code2
        assert report_diff(tmp_path / "r1.json", tmp_path / "r2.json") == ""


class TestScipyOffImportPath:
    """No levyid code path loads scipy: levy-check integrates its quadrature
    and integrability conditions on numpy, and a Poisson job has closed
    forms for both."""

    @staticmethod
    def _run(*jobs, then=""):
        """Run (command, config path) jobs in a fresh interpreter, then the
        code `then`; return its stdout: the exit codes, then the scipy
        modules loaded."""
        code = (
            "import os, sys\n"
            "import levyid, levyid.cli\n"
            "args = sys.argv[1:]\n"
            "codes = [levyid.cli.main([cmd, '--config', cfg, '--out', os.devnull])\n"
            "         for cmd, cfg in zip(args[::2], args[1::2])]\n"
            + then +
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, *(x for job in jobs for x in job)],
                              capture_output=True, text=True, env=_src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_import_loads_no_scipy_or_numpy_polynomial(self):
        # import cost is part of every run's setup: the Gauss-Legendre rule
        # is built on first use, not at import
        then = "assert not any(m.startswith('numpy.polynomial') for m in sys.modules)\n"
        assert self._run(then=then) == "[] []"

    def test_isonat_and_permanental_load_no_scipy(self, tmp_path):
        iso = _write(tmp_path, "iso.json", dict(BASE, mc={"N": 2000}))
        perm = _write(tmp_path, "perm.json", {"process": PERM, "mc": {"N": 2000}, "seed": 4})
        assert self._run(("verify-isonat", iso), ("permanental", perm)) == "[0, 0] []"

    def test_poisson_levy_check_loads_no_scipy(self, tmp_path):
        levy = _write(tmp_path, "levy.json", {"process": BASE["process"], "grid": [0.5, 1.0],
                                              "mc": {"N": 2000}, "levy": {"n": 1000},
                                              "seed": 4})
        assert self._run(("levy-check", levy)) == "[0] []"

    def test_integrating_levy_checks_load_no_scipy(self, tmp_path):
        gamma = {"rate": 1.0, "law": {"kind": "gamma", "shape": 0.5, "rate": 2.0}}
        processes = {
            "ts": {"family": "tempered-stable", "alpha": 0.5},
            "sato": {"family": "sato", "H": 1.0,
                     "bdlp": {"rate": 1.0, "law": {"kind": "exponential", "mean": 1.0}}},
            "conv": {"family": "conv", "kernel": {"kind": "indicator", "length": 1.0},
                     "driver": {"rate": 1.0, "law": {"kind": "exponential", "mean": 1.0}}},
            "conv-ts": CONV_TS,
            # a gamma-law driver's one_minus_exp_moment, in the quadrature and
            # in the integrability conditions
            "sato-gamma": {"family": "sato", "H": 0.8, "bdlp": gamma},
        }
        jobs = [("levy-check", _write(tmp_path, f"{name}.json", {
            "process": process, "grid": [0.5, 1.0, 2.0], "mc": {"N": 2000},
            "levy": {"n": 1000}, "seed": 4})) for name, process in processes.items()]
        assert self._run(*jobs) == "[0, 0, 0, 0, 0] []"



def _to_jsonable_ref(obj):
    """The report conversion json.dumps ran on before reports had their own
    writer: numpy values unwrapped, keys turned to str, non-finite floats
    to their repr strings."""
    if isinstance(obj, dict):
        return {str(k): _to_jsonable_ref(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable_ref(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable_ref(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _stdlib_text(obj):
    return json.dumps(_to_jsonable_ref(obj), indent=2, sort_keys=True)


class TestReportWriter:
    """cli._json_text writes the text json.dumps(indent=2, sort_keys=True)
    writes for the converted report, byte for byte."""

    CORPUS = [
        math.inf, -math.inf, math.nan, [math.inf, -math.inf, math.nan],
        {"z": math.nan, "lhs": -math.inf}, -0.0, [0.0, -0.0, 1e-300, 5e-324, 1e300],
        2**64 - 1, {"seed": 18446744073709551615}, -(2**70), 0.1, 1 / 3, 1e16, 123.0,
        np.float64(0.1), np.float64(-np.inf), np.float32(0.1), np.int64(-7), np.int32(3),
        np.uint64(2**64 - 1), np.bool_(True), np.bool_(False), np.float64(np.nan),
        np.array([1.5, -0.0, np.inf]), np.array([[1, 2], [3, 4]]), np.zeros((2, 0)),
        np.array([True, False]), np.array([], dtype=float),
        (1, 2.5, "x"), ((), []), {}, [], [{}], [[]], {"a": {}}, {"a": []},
        {"a": [{}, [], {"b": [[]]}]}, [[[], {}], {"x": ()}],
        {10: "ten", 2: "two", "1": "one"}, {2.5: 1, -1: 2, True: 3, None: 4},
        {np.int64(3): "a", np.float64(0.5): "b"},
        "café — ν(F) \U0001f600", "tab\tnew\nline\r\x00\x1f\x7f \"q\" \\ /",
        {"é": 1, "e": 2, "\x01": 3, "": 4}, "", None, True, False,
        [None, True, False, 0, 1, -1], {"nested": {"deep": [1, [2, [3, {"k": np.arange(3)}]]]}},
    ]

    @pytest.mark.parametrize("obj", CORPUS, ids=range(len(CORPUS)))
    def test_corpus(self, obj):
        assert cli._json_text(obj) == _stdlib_text(obj)

    def test_whole_corpus_as_one_report(self):
        obj = {str(k): v for k, v in enumerate(self.CORPUS)}
        assert cli._json_text(obj) == _stdlib_text(obj)

    def test_unknown_type_raises_as_json_dumps_does(self):
        for obj in (object(), {"a": [1, {2, 3}]}, np.complex128(1j)):
            with pytest.raises(TypeError):
                _stdlib_text(obj)
            with pytest.raises(TypeError):
                cli._json_text(obj)

    @staticmethod
    def _written_reports(monkeypatch, argvs):
        """(report object, text written) of each run of main."""
        seen = []

        def spy(obj):
            seen.append((obj, writer(obj)))
            return seen[-1][1]

        writer = cli._json_text
        monkeypatch.setattr(cli, "_json_text", spy)
        for argv in argvs:
            assert main(argv + ["--out", os.devnull]) == 0
        return seen

    def test_smoke_suite_and_poisson_isonat_reports(self, tmp_path, monkeypatch):
        root = Path(__file__).resolve().parents[1] / "configs"
        smoke = json.loads((root / "suite_smoke.json").read_text())
        for job in smoke["jobs"]:
            cfg = job["config"]
            if "N" in cfg.get("mc", {}):
                cfg["mc"]["N"] = 1000
            if "levy" in cfg:
                cfg["levy"]["n"] = 1000
        iso = dict(json.loads((root / "poisson_isonat.json").read_text()), mc={"N": 2000})
        reports = self._written_reports(monkeypatch, [
            ["suite", "--config", _write(tmp_path, "smoke.json", smoke)],
            ["verify-isonat", "--config", _write(tmp_path, "iso.json", iso)],
        ])
        assert len(reports) == 2
        for report, text in reports:
            assert text == _stdlib_text(report)


def _outside_timestamp(text):
    """Report text with its timestamp block cut out."""
    start = text.index('\n  "timestamp": {')
    end = text.index("\n  }", start + 1)
    return text[:start] + text[end + 4:]


class TestCachedParser:
    """main builds its parser once and reuses it; no run sees another's flags."""

    def test_build_parser_is_cached(self):
        assert cli.build_parser() is cli.build_parser()

    def test_second_run_in_a_process_matches_a_fresh_one(self, tmp_path):
        cfgp = _write(tmp_path, "cfg.json", dict(BASE, mc={"N": 2000}))

        def argv(name, flags):
            extra = ["--seed", "5", "--csv", str(tmp_path / f"{name}.csv")] if flags else []
            return ["verify-isonat", "--config", cfgp, "--out", str(tmp_path / f"{name}.json"),
                    *extra]

        # each run alone in a fresh interpreter, then both in this one
        for name, flags in (("fresh0", True), ("fresh1", False)):
            subprocess.run([sys.executable, "-m", "levyid", *argv(name, flags)],
                           env=_src_env(), check=True, timeout=120)
        assert main(argv("same0", True)) == 0
        assert main(argv("same1", False)) == 0
        for k in range(2):
            fresh, same = ((tmp_path / f"{side}{k}.json").read_text()
                           for side in ("fresh", "same"))
            assert _outside_timestamp(same) == _outside_timestamp(fresh)
        assert json.loads((tmp_path / "same0.json").read_text())["seed"] == 5
        assert json.loads((tmp_path / "same1.json").read_text())["seed"] == 11
        assert (tmp_path / "same0.csv").read_bytes() == (tmp_path / "fresh0.csv").read_bytes()
        assert not (tmp_path / "same1.csv").exists() and not (tmp_path / "fresh1.csv").exists()
