"""Config fuzzing: one key of a small valid config replaced by a hostile value.

Whatever the value, `levyid` must end with exit 0, 1 or 2 and let no
exception escape `cli.main`. Replacement values come from a fixed small set,
so no draw asks for a huge sample.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from levyid import cli

MC = {"N": 200, "B": 10, "z_crit": 3.0}
BASE = {"seed": 3, "process": {"family": "poisson", "lambda": 1.0},
        "grid": [0.5, 1.0, 2.0], "identity": {"a": 1.0}, "mc": MC}
PERM = {"seed": 3, "mc": MC, "identity": {"a": 0},
        "process": {"family": "permanental", "rates": [[0, 1], [1, 0]],
                    "kill": [1.0, 0.5], "beta": 1.0}}
SATO = {"family": "sato", "H": 1.0,
        "bdlp": {"rate": 1.0, "law": {"kind": "gamma", "shape": 2.0, "rate": 1.0}}}
CONV = {"family": "conv",
        "kernel": {"kind": "tabulated", "knots": [0.0, 1.0, 2.0], "values": [1.0, 0.5, 0.0]},
        "driver": {"rate": 1.0, "law": {"kind": "discrete", "atoms": [[1.0, 0.5], [2.0, 0.5]]}}}

# (command, base config); N <= 200 everywhere
BASES = [
    ("simulate", BASE),
    ("simulate", dict(BASE, process=SATO)),
    ("verify-isonat", dict(BASE, process=CONV)),
    ("verify-condition", dict(BASE, process={"family": "tempered-stable", "alpha": 0.5},
                              panel=[{"alphas": [1.0, 0.5], "times": [0.5, 2.0]}])),
    ("levy-check", dict(BASE, levy={"n": 100, "mixing_mean": 1.0, "theta": 1.0,
                                    "split_a": [1.0]})),
    ("permanental", dict(PERM, panel=[{"alphas": [1.0], "times": [1]}])),
    ("limit", dict(BASE, limit={"n": 20, "n_max": 400, "deltas": [1.0, 0.5]})),
    ("suite", {"seed": 3, "jobs": [{"name": "j", "command": "simulate", "config": BASE}]}),
]

HOSTILE = ["x", 2.5, -1, None, [], {}, True]


def _key_paths(obj, prefix=()):
    """Every key or list index path below obj, outermost first."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        yield prefix + (k,)
        yield from _key_paths(v, prefix + (k,))


CASES = [(command, base, path) for command, base in BASES for path in _key_paths(base)]


def _replaced(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return cfg


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=st.sampled_from(CASES), value=st.sampled_from(HOSTILE))
def test_hostile_value_exits_cleanly(case, value):
    command, base, path = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(_replaced(base, path, value), fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", cfg_path, "--workers", "1",
                             "--out", os.path.join(tmp, "report.json")])
    assert code in (0, 1, 2), (command, path, value, code)
    assert "Traceback" not in err.getvalue()
