"""The benchmark tracer binds package functions by name from outside.

`perfbench/tracer.py` wraps every `TARGETS` function of each `levyid`
module and reads the work each call was handed from its bound arguments
(`WORK`). A deleted function or a renamed parameter would break `--trace 1`
runs without touching any other test, so this checks the names here. It
also adopts sample_ensemble's chunk function, so that spans opened in pool
threads keep sample_ensemble as their parent. `perfbench/run.py` also reads
report keys: a limit job's per-rung `ess` and `n_used` lists.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from levyid import cli, identities, limits, processes
from levyid.core import LevyFunctionalPanel, PanelEntry, PoissonSpec, make_grid
from levyid.limits import DEFAULT_DELTAS
from levyid.randkit import RngStream

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ next to the tracer
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load_tracer()


class _Any:
    """Stand-in argument value: sized, multipliable, with any attribute."""

    def __len__(self):
        return 1

    def __getattr__(self, name):
        return self

    def __mul__(self, other):
        return 1

    __rmul__ = __mul__


class _Recorder(dict):
    """Bound-argument mapping that records the names a work measure reads:
    `args[k]` must be a parameter, of `args.get(k, ...)` names one must be."""

    def __init__(self):
        super().__init__()
        self.required, self.optional = set(), set()

    def __getitem__(self, key):
        self.required.add(key)
        return _Any()

    def get(self, key, default=None):
        self.optional.add(key)
        return default


TARGETS = [(layer, name) for layer, names in tracer.TARGETS.items() for name in names]


@pytest.mark.parametrize("layer,name", TARGETS, ids=[f"{lay}.{n}" for lay, n in TARGETS])
def test_target_exists_with_bound_arguments(layer, name):
    fn = getattr(importlib.import_module(f"levyid.{layer}"), name, None)
    assert callable(fn), f"levyid.{layer}.{name} is gone"
    params = set(inspect.signature(fn).parameters)
    if name in tracer.WORK:
        args = _Recorder()
        tracer.WORK[name][1](args)
        assert args.required <= params, (name, args.required - params)
        assert not args.optional or args.optional & params, (name, args.optional)
    if name == "sample_ensemble":
        assert "fn" in params  # the tracer re-parents the chunk function's spans


def test_every_work_entry_is_a_target():
    assert set(tracer.WORK) <= {name for _, name in TARGETS}


def test_limit_results_carry_per_rung_lists():
    # perfbench/run.py sums each limit job's ess and n_used lists into
    # limits.ess_ratio, so both stay top-level lists with one entry per rung
    cfg = {"process": {"family": "poisson", "lambda": 1.0}, "identity": {"a": 1.0},
           "limit": {"n": 100}}
    _, results, _, _ = cli._cmd_limit(cfg, 3)
    for key in ("ess", "n_used"):
        assert isinstance(results[key], list) and len(results[key]) == len(DEFAULT_DELTAS)


def test_job_handlers_table():
    assert isinstance(cli._JOB_HANDLERS, dict) and cli._JOB_HANDLERS
    assert all(callable(fn) for fn in cli._JOB_HANDLERS.values())


def _drawn_spans(call, names):
    """The spans of `names` that a traced call() opens, checking that each
    has a sample_ensemble ancestor."""
    t = tracer.Tracer()
    with tracer.instrument(t):
        call()
    by_id = {s.id: s for s in t.spans}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span.name

    drawn = [s for s in t.spans if s.name in names]
    assert sorted({s.name for s in drawn}) == sorted(names)
    assert all("sample_ensemble" in ancestors(s) for s in drawn)
    return drawn


@pytest.mark.parametrize("pool_cores", [3], indirect=True)
def test_pooled_spans_have_a_sample_ensemble_ancestor(pool_cores):
    # 60k rows: two chunks per side, drawn as four tasks on the caller and
    # two helper threads
    panel = LevyFunctionalPanel((PanelEntry((1.0,), (1.0,)),))
    _drawn_spans(lambda: identities.verify_decomposition_identity(
        RngStream(3), PoissonSpec(1.0), 1.0, make_grid([0.5, 1.0, 2.0]), panel, 60_000),
        ("hidden_values", "values_at", "visible_values"))


@pytest.mark.parametrize("pool_cores", [3], indirect=True)
def test_ladder_spans_have_a_sample_ensemble_ancestor(monkeypatch, pool_cores):
    # limit.n = 100 with 200-row chunks: the 800-row companion target and
    # every rung but the first span several chunks, drawn on the caller and
    # two helper threads
    monkeypatch.setattr(processes, "CHUNK", 200)
    panel = LevyFunctionalPanel((PanelEntry((1.0,), (1.0,)),))
    drawn = _drawn_spans(lambda: limits.verify_thinning_limit(
        RngStream(3), PoissonSpec(1.0), 1.0, make_grid([0.5, 1.0, 2.0]), panel, 100),
        ("companion_values", "thinned_values"))
    # one span per chunk: 4 for the target, then 1, 2, 5 and 17 for the rungs
    assert sum(s.name == "companion_values" for s in drawn) == 4
    assert sum(s.name == "thinned_values" for s in drawn) == 25
