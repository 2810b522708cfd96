import csv
import json
import math
import os
import subprocess
import sys
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
from levyid.core import ConvSpec, PoissonSpec, SatoSpec, TemperedStableSpec
from levyid.levymeasure import LevyEstimate, levy_functional_quadrature
from levyid.permanental import green_matrix, marginal_levy_functional


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


def _run(tmp_path, args, config=None):
    argv = list(args)
    if config is not None:
        argv += ["--config", _write(tmp_path, "cfg.json", config)]
    out = tmp_path / "report.json"
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
        assert rep["schema"] == "levy-id/1"
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
        assert rep["schema"] == "levy-id/1"


class TestDeterminism:
    @pytest.mark.parametrize("argv,cfg", [
        (["verify-isonat"], BASE),
        (["verify-condition"], BASE),
        (["levy-check"], dict(BASE, mc={"N": 10_000, "B": 100}, levy={"n": 10_000})),
    ], ids=["isonat", "condition", "levy"])
    def test_repeat_runs_identical(self, tmp_path, argv, cfg):
        code1, rep1 = _run(tmp_path, argv, cfg)
        code2, rep2 = _run(tmp_path, argv, cfg)
        assert code1 == code2 == 0
        rep1.pop("timestamp")
        rep2.pop("timestamp")
        assert rep1 == rep2

    def test_worker_flag_does_not_change_results(self, tmp_path):
        cfgp = _write(tmp_path, "cfg.json", BASE)
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify-isonat", "--config", cfgp, "--workers", "1", "--out", str(o1)]) == 0
        assert main(["verify-isonat", "--config", cfgp, "--workers", "4", "--out", str(o2)]) == 0
        r1, r2 = json.loads(o1.read_text()), json.loads(o2.read_text())
        r1.pop("timestamp")
        r2.pop("timestamp")
        assert r1 == r2

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
        assert rows[0][0] == "delta"
        assert len(rows) == 5
        rep = json.loads(out.read_text())
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

# inputs the samplers cannot draw, caught before drawing, each with the config
# key its diagnostic names: a Poisson jump-count mean past numpy's limit
# (lambda * t, or the Sato driver's rate over a span set by H and the grid),
# or a tempered-stable span needing too many sub-steps
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
                                                      "alpha": 0.5},
                                       grid=[1e6], mc={"N": 10}), "'grid'"),
    "ts-conv-grid-overflow": (["simulate"], dict(BASE, process=CONV_TS, grid=[1e300],
                                                 mc={"N": 10}), "'grid'"),
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

    @pytest.mark.parametrize("argv,cfg,key", SAMPLER_LIMITS.values(), ids=list(SAMPLER_LIMITS))
    def test_sampler_limit_names_the_key(self, tmp_path, capsys, argv, cfg, key):
        cfg_path = _write(tmp_path, "cfg.json", cfg)
        assert main([*argv, "--config", cfg_path, "--out", os.devnull]) == 2
        assert key in capsys.readouterr().err

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
        def exact(rng, spec, entry, n, mixing_mean=1.0, theta=1.0):
            q = levy_functional_quadrature(spec, entry).value
            return LevyEstimate(float(np.nextafter(q, np.inf)), 0.0, "probabilistic")

        monkeypatch.setattr(cli, "levy_functional_mc", exact)
        _, rep = _run(tmp_path, ["levy-check"], self.LEVY)
        reprs = rep["results"]["representation"]
        assert reprs["pass"]
        assert all(e["z"] == 0.0 for e in reprs["entries"])

    def test_mixing_invariance_unequal_exact_values_fail(self, tmp_path, monkeypatch):
        def exact(rng, spec, entry, n, mixing_mean=1.0, theta=1.0):
            return LevyEstimate(0.1 * mixing_mean, 0.0, "probabilistic")

        monkeypatch.setattr(cli, "levy_functional_mc", exact)
        code, rep = _run(tmp_path, ["levy-check"], self.LEVY)
        mix = rep["results"]["mixing_invariance"]
        assert code == 1 and not mix["pass"]
        assert all(e["z"] == "inf" for e in mix["entries"])

    def test_permanental_marginal_equal_to_oracle_passes(self, tmp_path, monkeypatch):
        def exact(rng, chain, m_weights, entry, n):
            g = green_matrix(chain)
            return LevyEstimate(marginal_levy_functional(g, 1.0, int(entry.times[0])),
                                0.0, "permanental-mc")

        monkeypatch.setattr(cli, "levy_functional_permanental", exact)
        cfg = {"process": PERM, "identity": {"a": 0}, "mc": {"N": 2000}, "seed": 4}
        _, rep = _run(tmp_path, ["permanental"], cfg)
        marg = rep["results"]["levy_marginals"]
        assert marg["pass"]
        assert all(s["z"] == 0.0 for s in marg["states"])


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
        _, rep = _run(tmp_path, ["verify-isonat"], BASE)
        assert "notes" not in rep["results"]


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
        ("levy-check", dict(SMALL, levy={"n": 200, "mixing_mean": 2.0, "theta": 0.5,
                                         "split_a": [1.0]})),
        ("permanental", {"process": dict(PERM, beta=0.5), "identity": {"a": 1},
                         "mc": {"N": 500, "z_crit": 2.5}}),
        ("limit", dict(SMALL, limit={"n": 20, "n_max": 400, "deltas": [1.0, 0.5]})),
        ("suite", {"jobs": [{"name": "j", "command": "verify-isonat", "config": SMALL}]}),
    ], ids=["simulate", "simulate-permanental", "isonat", "condition", "levy",
            "permanental", "limit", "suite"])
    def test_echoed_config_reproduces_report(self, tmp_path, command, cfg):
        code1, rep1 = _run(tmp_path, [command, "--seed", "5"], cfg)
        code2, rep2 = _run(tmp_path, [command, "--seed", "5"], rep1["config"])
        rep1.pop("timestamp")
        rep2.pop("timestamp")
        assert code1 == code2 and rep1 == rep2


class TestScipyOffImportPath:
    def test_isonat_and_permanental_load_no_scipy(self, tmp_path):
        """scipy is loaded by the levy-check quadrature only."""
        iso = _write(tmp_path, "iso.json", dict(BASE, mc={"N": 2000}))
        perm = _write(tmp_path, "perm.json", {"process": PERM, "mc": {"N": 2000}, "seed": 4})
        code = (
            "import os, sys\n"
            "import levyid, levyid.cli\n"
            "codes = [levyid.cli.main([cmd, '--config', cfg, '--out', os.devnull])\n"
            "         for cmd, cfg in (('verify-isonat', sys.argv[1]),\n"
            "                          ('permanental', sys.argv[2]))]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, iso, perm], capture_output=True,
                              text=True, env=_src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0] []"
