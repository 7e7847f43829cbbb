"""thetacalc benchmark runner.

    python3 perfbench/run.py --workload difference --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One process, one thread, one closed-loop client: each request is a
CLI argv run in-process through ``thetacalc.cli.main`` with stdout and
stderr captured, and the next request is sent only after the previous one
returned and its response was checked by the oracle.

Times are reported at a reference machine speed.  A fixed 1 ms computation
that does not use thetacalc runs between requests, and each wall time is
scaled by REFERENCE_S over the reference's time around it.  On a shared host
the whole machine slows by up to 1.8x for seconds at a time; unscaled, the
same run varies by 15-30% from one minute to the next, scaled by 2-5%.  A
change to the program's speed passes through unchanged.  The unscaled
throughput and latencies are kept in the record.

Set-up (import, generation of round 0, warm-up on a disjoint seed) runs
five times; ``setup_s`` is the median.  With ``--trace 0`` the run sends
rounds 0, 1, 2, ... for ``--seconds`` of wall time (round 0 always
completes) and reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes over round 0, at least one pair and
as many as fit in ``--seconds``, and reports per-layer metrics (medians
over the traced passes; call counts repeat exactly).  The last line of
stdout is one JSON object; a fuller record (with the per-request span
aggregates of a traced run) goes to perfbench/results/.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"     # before anything imports numpy

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from algebra import Poly, det  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 5
REFERENCE_S = 0.001       # reference time that defines the reported machine speed
DIGESTS = HERE / "digests.json"
RESULTS = HERE / "results"

# functions whose layer-local time is reported as <name>.self_s
FOCUS = {
    "exact.gcd": "exact.Polynomial.gcd",
    "linalg.rref": "linalg.rref",
    "linalg.det": "linalg.det",
    "forms.form_divrem": "forms.form_divrem",
    "forms.rational_roots": "forms.rational_roots",
    "dependence.windowed_scan": "dependence.windowed_scan",
    "monodromy.local_structure": "monodromy.local_structure",
    "monodromy.theta_determinant": "monodromy.theta_determinant",
    "algebraic.derivative_table": "algebraic.derivative_table",
    "algebraic.tannery_ode": "algebraic.tannery_ode",
    "operators.grevy_determinant": "operators.grevy_determinant",
}
CALLS = {
    "expr.parse.calls": "expr.parse",
    "exact.gcd.calls": "exact.Polynomial.gcd",
    "exact.ratfunc_new.calls": "exact.RationalFunction.__init__",
    "exact.shift.calls": "exact.Polynomial.shift",
    "linalg.rref.calls": "linalg.rref",
    "linalg.mat_mul.calls": "linalg.mat_mul",
    "forms.form_mul.calls": "forms.form_mul",
    "monodromy.local_structure.calls": "monodromy.local_structure",
    "operators.compose.calls": "operators.TruncatedOperator.compose",
}
# size curves: metric prefix, span, request kinds, size tags
CURVES = [
    ("monodromy.theta_determinant", "monodromy.theta_determinant", ("theta-det",),
     ["n3", "n4", "n5", "n6"]),
    ("algebraic.tannery_ode", "algebraic.tannery_ode", ("tannery", "tannery-shape",
                                                       "verify-numeric"), ["m2", "m3", "m4"]),
    ("operators.grevy_determinant", "operators.grevy_determinant", ("grevy",),
     ["n2", "n3", "n4"]),
]


def per_layer_names():
    names = ["%s.self_s" % layer for layer in LAYERS]
    names += ["%s.self_s" % key for key in FOCUS]
    names += list(CALLS)
    for prefix, _span, _kinds, tags in CURVES:
        names += ["%s.%s_ms" % (prefix, tag) for tag in tags]
    return names + ["trace.overhead_ratio"]


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name.endswith("_ratio") else "s"


# -- running requests ------------------------------------------------------------

def import_package():
    """Fresh import of thetacalc from ./src (earlier imports are dropped)."""
    for name in [n for n in sys.modules if n == "thetacalc" or n.startswith("thetacalc.")]:
        del sys.modules[name]
    return importlib.import_module("thetacalc.cli")


def send(cli, req):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(req.argv))
        except Exception:      # an escaped exception is a failed request
            rc = -1
            err.write(traceback.format_exc(limit=3))
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


class Tally:
    """Attempts, oracle failures and the round-0 output digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = hashlib.sha256()

    def record(self, req, rc, out, err, in_digest):
        self.attempted += 1
        why = oracle.check(req, rc, out, err)
        if why:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append({"argv": list(req.argv), "why": why})
        if in_digest:
            oracle.digest_update(self.digest, req, rc, out, err)


def reference_seconds():
    """Time of a fixed 1 ms computation in the benchmark's own algebra.

    It uses nothing from thetacalc, so it changes only with the machine: on
    a shared host other tenants slow it and the program alike, by up to
    1.8x, switching within a second."""
    t0 = time.perf_counter()
    m = [[Fraction(7 * i + 3 * j + 1, j + 2) for j in range(6)] for i in range(6)]
    det(m)
    p = Poly([Fraction(k, k + 1) for k in range(6)])
    (p * p).shift(2)
    return time.perf_counter() - t0


def run_requests(cli, reqs, tally, in_digest, tracer=None, deadline=None):
    """Send requests in order, checking each response.

    Returns [(request, seconds, scale, spans)].  reference_seconds() runs
    between requests, and seconds is the request's wall time scaled to the
    reference machine speed: times scale, which is REFERENCE_S over the
    mean of the references just before and after it.  The scaling cancels the speed
    changes of a shared host and keeps every change in the program's own
    speed, since the reference does not use thetacalc.  spans are the
    tracer's aggregates for the request, scaled alike."""
    done = []
    before = reference_seconds()
    for req in reqs:
        rc, out, err, dt = send(cli, req)
        spans = tracer.take() if tracer else None
        after = reference_seconds()
        scale = 2 * REFERENCE_S / (before + after)
        before = after
        if spans:
            spans = {"spans": {k: (n, total * scale, own * scale)
                               for k, (n, total, own) in spans["spans"].items()},
                     "layers": {k: v * scale for k, v in spans["layers"].items()},
                     "focus": {k: v * scale for k, v in spans["focus"].items()}}
        done.append((req, dt * scale, scale, spans))
        tally.record(req, rc, out, err, in_digest)
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return done


def setup(workload, seed):
    """Import, generate round 0 and warm up; returns (seconds at the
    reference speed, cli, round 0, warm-up failures)."""
    before = reference_seconds()
    t0 = time.perf_counter()
    cli = import_package()
    first = workloads.round_requests(workload, seed, 0)
    warm = Tally()
    for req in workloads.warmup_requests(workload, seed):
        rc, out, err, _ = send(cli, req)
        warm.record(req, rc, out, err, False)
    elapsed = time.perf_counter() - t0
    scale = 2 * REFERENCE_S / (before + reference_seconds())
    return elapsed * scale, cli, first, warm.failures


def timed_run(cli, workload, seed, first, seconds, tally):
    """Rounds 0, 1, ... until `seconds` of wall time have passed; round 0
    always completes.  Throughput counts only the time inside requests."""
    deadline = time.perf_counter() + seconds
    done = run_requests(cli, first, tally, True)
    index = 0
    while time.perf_counter() < deadline:
        index += 1
        done += run_requests(cli, workloads.round_requests(workload, seed, index), tally,
                             False, deadline=deadline)
    metrics = latency_metrics([dt for _req, dt, _scale, _spans in done])
    wall = latency_metrics([dt / scale for _req, dt, scale, _spans in done])
    detail = {"samples": len(done), "rounds": index + 1,
              "scale": summary([scale for _req, _dt, scale, _spans in done]),
              "wall_time_metrics": {k: v for k, (v, _unit) in wall.items()}}
    return metrics, detail


def latency_metrics(latencies):
    p = statistics.quantiles(latencies, n=10)
    return {"throughput_rps": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_p90_ms": (p[8] * 1e3, "ms")}


def traced_run(cli, first, seconds, tally):
    """Pairs of untraced and traced passes over round 0: at least one, and
    another only while it is expected to end within `seconds`."""
    tracer = Tracer("thetacalc", FOCUS.values())
    passes, start = [], time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain = run_requests(cli, first, tally, not passes)
        tracer.install()
        try:
            traced = run_requests(cli, first, tally, False, tracer=tracer)
        finally:
            tracer.uninstall()
        passes.append((plain, traced))
        now = time.perf_counter()
        if now + (now - pair_start) > start + seconds:
            break
    per_pass = [layer_metrics(plain, traced) for plain, traced in passes]
    metrics = {}
    for name in per_layer_names():
        values = [m[name] for m in per_pass]
        value = values[0] if name.endswith(".calls") else statistics.median(values)
        metrics[name] = (value, unit_of(name))
    spans = [{"kind": req.kind, "size": req.size, "spans": agg["spans"]}
             for req, _dt, _scale, agg in passes[0][1]]
    return metrics, {"passes": len(passes), "first_pass_spans": spans}


def layer_metrics(plain, traced):
    out = {name: 0.0 for name in per_layer_names()}
    for _req, _dt, _scale, agg in traced:
        for layer, v in agg["layers"].items():
            out["%s.self_s" % layer] += v
        for key, span in FOCUS.items():
            out["%s.self_s" % key] += agg["focus"][span]
        for name, span in CALLS.items():
            out[name] += agg["spans"].get(span, (0,))[0]
    for prefix, span, kinds, tags in CURVES:
        for tag in tags:
            ms = [agg["spans"][span][1] * 1e3 for req, _dt, _scale, agg in traced
                  if req.kind in kinds and req.size == tag and span in agg["spans"]]
            out["%s.%s_ms" % (prefix, tag)] = statistics.median(ms) if ms else 0.0
    for name in CALLS:
        out[name] = int(out[name])
    out["trace.overhead_ratio"] = (sum(item[1] for item in traced)
                                   / sum(item[1] for item in plain))
    return out


# -- records ---------------------------------------------------------------------

def summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "iqr": q[2] - q[0], "n": len(values)}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    """HEAD of the checkout, read from .git without starting git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def recorded_digest(workload, seed):
    try:
        return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    except (OSError, ValueError):
        return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "thetacalc" / "cli.py").is_file():
        sys.stderr.write("no thetacalc sources under %s\n" % (ROOT / "src"))
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    setups = [setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    setup_times = [s[0] for s in setups]
    _, cli, first, warm_failures = setups[-1]
    tally = Tally()
    if args.trace:
        metrics, detail = traced_run(cli, first, args.seconds, tally)
    else:
        metrics, detail = timed_run(cli, args.workload, args.seed, first, args.seconds, tally)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    digest = tally.digest.hexdigest()
    recorded = recorded_digest(args.workload, args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail, "setup_s": dict(summary(setup_times), values=setup_times),
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted,
        "failures": tally.failures, "warmup_failures": warm_failures,
        "round0_output_sha256": digest, "recorded_sha256": recorded,
        "python": platform.python_version(), "cpu": cpu_model(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    for name, (value, unit) in metrics.items():
        print("%-44s %14.6g %s" % (name, value, unit))
    print("%-44s %14.6g ratio" % ("failed_ratio", record["failed_ratio"]))
    print("round0_output_sha256 %s (%s)" % (digest, "no recorded digest" if recorded is None
                                            else "matches recorded" if recorded == digest
                                            else "DIFFERS from recorded %s" % recorded))
    for item in tally.failures + warm_failures:
        print("FAILED %s: %s" % (" ".join(item["argv"])[:160], item["why"]))
    correct = tally.failed == 0 and not warm_failures
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
