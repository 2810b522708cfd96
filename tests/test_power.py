"""Power: each verifier fails when the identity it checks is broken.

Every mutation rebinds one module attribute that a verifier looks up at call
time, then runs the command in-process through cli.main at the smoke suite's
N. Unmutated, these configs pass with max |z| below 2.7 (seeds 1-3 and the
one below); every mutation reads max |z| of 36 to 145 there, so MARGIN
leaves room on both sides of the Bonferroni gate (3.4 to 3.5). The
levy-check mutation, on the desk's Sato and conv processes at levy.n = N/2,
reads max |z| of 19 and 30 against its REPR_Z = 4 gate. The Poisson
sampler's inversion table built at 1.1 times each step's mean reads max |z|
of 15.9 to 18.0 in levy-check's Laplace-exponent block (unmutated at most
2.3) on seeds 1-5 and the one below, and of 17.7 to 19.0 in the
decomposition, whose hidden + visible sum is gated against the exact
e^{-kappa} (unmutated at most 1.9, same seeds). MARGIN clears both. The tilting
check compares two sides that share the sampler, so an exact value is what
catches it.
Scaling E psi(a) in
the tilting weights by 1.1 reads max |z| of 7.8 to 17.8 on seeds 1-4 and the
one below, hence its own NORMALIZER_MARGIN.

The thinning ladder runs on the desk limit jobs' panel at limit.n = LIMIT_N.
Drawing every rung from the unthinned process reads max |z| of 55 to 140
(seeds 1-5 and the one below). Scaling E psi(a) in the rung weights by 1.1
needs more rows: at limit.n = NORMALIZER_LIMIT_N it reads max |z| of 6.5 to
15.4, and unmutated Poisson and tempered-stable ladders there read at most
2.5.
"""

import json

import numpy as np
import pytest

from levyid import identities, levymeasure, limits, permanental, processes, randkit
from levyid.cli import main
from levyid.processes import values_at

N = 20_000
SEED = 20260501
MARGIN = 10.0
NORMALIZER_MARGIN = 5.0
LIMIT_N = 100
NORMALIZER_LIMIT_N = 4000
LIMIT_PANEL = [{"alphas": [1.0], "times": [1.0]}, {"alphas": [0.5, 0.5], "times": [0.5, 2.0]}]

EXP1 = {"kind": "exponential", "mean": 1.0}
FAMILIES = {
    "poisson": {"family": "poisson", "lambda": 1.0},
    "tempered-stable": {"family": "tempered-stable", "alpha": 0.5},
    "sato": {"family": "sato", "H": 1.0, "bdlp": {"rate": 1.0, "law": EXP1}},
    "conv": {"family": "conv", "kernel": {"kind": "indicator", "length": 1.0},
             "driver": {"rate": 1.0, "law": EXP1}},
}
PERM = {"family": "permanental", "rates": [[0.0, 1.0], [1.0, 0.0]],
        "kill": [0.7, 0.4], "beta": 1.0}


def _run(tmp_path, command, process, limit_n=LIMIT_N):
    if command == "levy-check":
        cfg = {"process": process, "grid": [0.5, 1.0, 1.5, 2.0]}
    elif command == "permanental":
        cfg = {"process": process, "identity": {"a": 0}}
    else:
        cfg = {"process": process, "grid": [0.5, 1.0, 1.5, 2.0], "identity": {"a": 1.0}}
    if command == "limit":
        cfg.update(panel=LIMIT_PANEL, limit={"n": limit_n})
    cfg.update(mc={"N": N}, seed=SEED)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    code = main([command, "--config", str(path), "--out", str(out), "--workers", "1"])
    return code, json.loads(out.read_text())


def _max_abs_z(block):
    return max(abs(float(e["z"])) for e in block["entries"])  # "inf" parses too


def _zeros(rng, spec, a, points, n):
    return np.zeros((n, len(points)))


@pytest.mark.parametrize("command", ["verify-isonat", "verify-condition"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_unmutated_passes(tmp_path, command, family):
    assert _run(tmp_path, command, FAMILIES[family])[0] == 0


def test_unmutated_permanental_passes(tmp_path):
    assert _run(tmp_path, "permanental", PERM)[0] == 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tilting_without_companion_fails(tmp_path, monkeypatch, family):
    monkeypatch.setattr(identities, "companion_values", _zeros)
    code, rep = _run(tmp_path, "verify-isonat", FAMILIES[family])
    assert code == 1 and _max_abs_z(rep["results"]) > MARGIN


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tilting_with_wrong_normalizer_fails(tmp_path, monkeypatch, family):
    # weights psi(a) / (1.1 E psi(a)) have mean 1/1.1; a self-normalized
    # ratio cancels any constant factor, the control-variate LHS does not
    real = identities.mean_function
    monkeypatch.setattr(identities, "mean_function", lambda spec, t: 1.1 * real(spec, t))
    code, rep = _run(tmp_path, "verify-isonat", FAMILIES[family])
    assert code == 1 and _max_abs_z(rep["results"]) > NORMALIZER_MARGIN


@pytest.mark.parametrize("family", ["sato", "conv"])
def test_companion_from_plain_jump_law_fails(tmp_path, monkeypatch, family):
    monkeypatch.setattr(identities, "sample_size_biased_jump", randkit.sample_jump)
    code, rep = _run(tmp_path, "verify-isonat", FAMILIES[family])
    assert code == 1 and _max_abs_z(rep["results"]) > MARGIN


@pytest.mark.parametrize("family", ["poisson", "sato", "conv"])
def test_unmutated_levy_check_passes(tmp_path, family):
    assert _run(tmp_path, "levy-check", FAMILIES[family])[0] == 0


def test_poisson_table_at_wrong_mean_fails(tmp_path, monkeypatch):
    real = processes._poisson_table
    monkeypatch.setattr(processes, "_poisson_table", lambda mean: real(1.1 * mean))
    code, rep = _run(tmp_path, "levy-check", FAMILIES["poisson"])
    results = rep["results"]
    assert code == 1 and not results["laplace_exponent"]["pass"]
    assert results["representation"]["pass"]
    assert _max_abs_z(results["laplace_exponent"]) > MARGIN


def test_poisson_table_at_wrong_mean_fails_decomposition(tmp_path, monkeypatch):
    # hidden + visible share the mutated sampler, and only their exact
    # e^{-kappa} target does not
    real = processes._poisson_table
    monkeypatch.setattr(processes, "_poisson_table", lambda mean: real(1.1 * mean))
    code, rep = _run(tmp_path, "verify-condition", FAMILIES["poisson"])
    assert code == 1 and _max_abs_z(rep["results"]) > MARGIN


@pytest.mark.parametrize("family", ["sato", "conv"])
def test_representation_from_plain_jump_law_fails(tmp_path, monkeypatch, family):
    # the single-jump representation draws the size-biased jump law; the
    # plain law leaves every other levy-check block as it is
    monkeypatch.setattr(levymeasure, "sample_size_biased_jump", randkit.sample_jump)
    code, rep = _run(tmp_path, "levy-check", FAMILIES[family])
    results = rep["results"]
    assert code == 1 and not results["representation"]["pass"]
    assert results["laplace_exponent"]["pass"]
    assert _max_abs_z(results["representation"]) > MARGIN


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_decomposition_without_hidden_part_fails(tmp_path, monkeypatch, family):
    monkeypatch.setattr(identities, "hidden_values", _zeros)
    code, rep = _run(tmp_path, "verify-condition", FAMILIES[family])
    assert code == 1 and _max_abs_z(rep["results"]) > MARGIN


def test_permanental_local_times_once_fails(tmp_path, monkeypatch):
    # halving the pinned local times turns cond + 2 L into cond + L
    real = permanental.sample_local_times
    monkeypatch.setattr(permanental, "sample_local_times",
                        lambda *args, **kw: 0.5 * real(*args, **kw))
    code, rep = _run(tmp_path, "permanental", PERM)
    assert code == 1 and _max_abs_z(rep["results"]["identity"]) > MARGIN


@pytest.mark.parametrize("limit_n", [LIMIT_N, NORMALIZER_LIMIT_N])
@pytest.mark.parametrize("family", ["poisson", "tempered-stable"])
def test_unmutated_limit_passes(tmp_path, family, limit_n):
    assert _run(tmp_path, "limit", FAMILIES[family], limit_n)[0] == 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_limit_from_unthinned_paths_fails(tmp_path, monkeypatch, family):
    # every rung's weights then have mean 1 / delta, not 1
    monkeypatch.setattr(limits, "thinned_values",
                        lambda rng, spec, delta, points, n, out=None:
                        values_at(rng, spec, points, n, out))
    code, rep = _run(tmp_path, "limit", FAMILIES[family])
    assert code == 1 and _max_abs_z(rep["results"]) > MARGIN


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_limit_with_wrong_normalizer_fails(tmp_path, monkeypatch, family):
    # the former self-normalized ratio cancelled this factor; the known
    # normalizer does not
    real = limits.mean_function
    monkeypatch.setattr(limits, "mean_function", lambda spec, t: 1.1 * real(spec, t))
    code, rep = _run(tmp_path, "limit", FAMILIES[family], NORMALIZER_LIMIT_N)
    assert code == 1 and _max_abs_z(rep["results"]) > NORMALIZER_MARGIN
