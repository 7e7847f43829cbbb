"""Tests of the benchmark itself: seeded generation, oracles, tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return importlib.import_module("thetacalc.cli")


def _request_bytes(workload, seed, index):
    return json.dumps([r.argv for r in workloads.round_requests(workload, seed, index)]).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic(workload):
    a = _request_bytes(workload, 7, 0)
    b = _request_bytes(workload, 7, 0)
    other = _request_bytes(workload, 8, 0)
    later = _request_bytes(workload, 7, 1)
    assert a == b
    assert a != other and a != later
    assert len(workloads.round_requests(workload, 7, 0)) >= 100


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warmup_is_disjoint_from_measured_requests(workload):
    warm = {r.argv for r in workloads.warmup_requests(workload, 7)}
    measured = {r.argv for i in range(3) for r in workloads.round_requests(workload, 7, i)}
    assert warm and not warm & measured


def _bump_poly(text):
    return "%s + 1" % text


def _bump_q(text):
    return str(oracle.Q(text) + 1)


def _jordan_off_by_one(data):
    out = json.loads(json.dumps(data))
    out[0]["jordan_sizes"][0] += 1          # partition off by one
    return out


def _tannery_perturbed(data):
    out = dict(data)
    out["coeffs"] = list(data["coeffs"])
    out["coeffs"][0] = _bump_poly(out["coeffs"][0])   # one perturbed coefficient
    return out


def _theta_det_corrupt(data):
    out = json.loads(json.dumps(data))
    if out["terms"]:
        out["terms"][0]["coeff"] = _bump_q(out["terms"][0]["coeff"])
    else:
        out["terms"] = [{"rho": "0", "mag": "1", "k": 0, "coeff": "1"}]
    return out


def _canonical_corrupt(data):
    out = json.loads(json.dumps(data))
    v = out["action"][0][0]
    out["action"][0][0] = _bump_q(v) if isinstance(v, str) else [v[0] + 1, v[1]]
    return out


def _scan_corrupt(data):
    out = json.loads(json.dumps(data))
    out[0]["rank"] += 1
    return out


def _set(key, fn):
    def corrupt(data):
        out = json.loads(json.dumps(data))
        out[key] = fn(out[key])
        return out
    return corrupt


def _first(fn):
    return lambda items: [fn(items[0])] + items[1:]


CORRUPT = {
    "mul": _set("coeffs", _first(_bump_poly)),
    "divrem": _set("gamma", _first(_bump_poly)),
    "ruffini": _set("remainder", _bump_poly),
    "apply": _set("value", _bump_q),
    "casoratian": _set("value", _bump_q),
    "dependence": _set("rank", lambda r: r - 1),
    "scan": _scan_corrupt,
    "transform": _set("offset", lambda k: k + 1),
    "transform-inverse": _set("operator", lambda op: None if op else {"terms": [[0, 0, "1"]]}),
    "cauchy-pf": lambda d: [dict(d[0], residues=[_bump_q(d[0]["residues"][0])]
                                 + d[0]["residues"][1:])] + d[1:],
    "parse": _set("normalized", _bump_poly),
    "companion": _set("coeffs", _first(_bump_q)),
    "minimal": _set("coeffs", _first(_bump_q)),
    "local-structure": _jordan_off_by_one,
    "canonical-system": _canonical_corrupt,
    "theta-det": _theta_det_corrupt,
    "tannery": _tannery_perturbed,
    "tannery-shape": _set("shape_ok", lambda ok: not ok),
    "verify-numeric": _set("max_residual", lambda r: 0.5),
    "funcder": _set("columns", _first(_bump_poly)),
    "classify": _set("alpha", _bump_poly),
    "mult-check": _set("holds", lambda h: not h),
    "grevy": _set("zero_on_reliable", lambda z: not z),
    "nsymb-check": lambda d: [dict(d[0], operator_is_zero=False)] + d[1:],
}


def _sample_requests():
    """The cheapest request of every kind that succeeds, across workloads."""
    picked = {}
    for workload in workloads.WORKLOADS:
        pool = workloads.warmup_requests(workload, 3) + workloads.round_requests(workload, 3, 0)
        for req in sorted(pool, key=lambda r: len(" ".join(r.argv))):
            if req.expect_rc == 0 and req.size not in ("m3", "m4", "n5", "n6", "n4"):
                picked.setdefault(req.kind, req)
    return [picked[kind] for kind in sorted(picked)]


def test_every_kind_has_a_corruption():
    assert {r.kind for r in _sample_requests()} == set(CORRUPT)


@pytest.mark.parametrize("req", _sample_requests(), ids=lambda r: r.kind)
def test_oracle_accepts_program_and_rejects_corruption(cli, req):
    rc, out, err, _ = run.send(cli, req)
    assert oracle.check(req, rc, out, err) is None
    bad = json.dumps(CORRUPT[req.kind](json.loads(out)))
    assert oracle.check(req, rc, bad, err) is not None


def test_planted_domain_error_is_expected_and_checked(cli):
    req = next(r for r in workloads.warmup_requests("monodromy", 3) if r.expect_rc == 1)
    rc, out, err, _ = run.send(cli, req)
    assert rc == 1 and oracle.check(req, rc, out, err) is None
    assert oracle.check(req, 0, "[]", "") is not None
    assert oracle.check(req, 1, "", "error: something else") is not None


def test_exact_series_oracle_rejects_a_wrong_ode():
    req = workloads.warmup_requests("tannery", 3)[0]
    coeffs, point = req.plan["coeffs"], req.plan["point"]
    # y + x y' = 0 holds only for y = c/x, which is no branch of this f
    ode = [oracle.Poly((1,)), oracle.Poly((0, 1))]
    assert any(oracle.ode_residual_series(coeffs, point, ode))


def test_tracer_counts_repeat_and_uninstall_restores(cli):
    forms = importlib.import_module("thetacalc.forms")
    original = forms.form_mul
    reqs = workloads.warmup_requests("difference", 3)
    tracer = Tracer("thetacalc", run.FOCUS.values())
    counts = []
    for _ in range(2):
        tracer.install()
        try:
            assert cli.form_mul is not original and cli.form_mul is forms.form_mul
            for req in reqs:
                run.send(cli, req)
            agg = tracer.take()
        finally:
            tracer.uninstall()
        counts.append({k: v[0] for k, v in agg["spans"].items()})
        assert all(v >= -1e-9 for v in agg["layers"].values())
    assert counts[0] == counts[1] and counts[0]["expr.parse"] > 0
    assert forms.form_mul is original and cli.form_mul is original


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "throughput_rps", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
