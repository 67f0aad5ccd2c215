"""rabe benchmark: one closed-loop client driving rabe's public API in-process.

    python3 perfbench/run.py --workload attack-real --seed 1 --seconds 10 --trace 0

--trace 0 sets up three times (setup_s is the import time plus the median
set-up), then measures whole blocks of ops until --seconds have passed and
at least the workload's minimum op count is done.  It reports the
end-to-end metrics.

--trace 1 sets up once, runs the workload's fixed op list untraced, then
the same list traced, and reports per-op layer metrics, the tracing
overhead and the cost-model check.  The spans are written to
.perfbench-out/ at the checkout root.

Times are quoted at a fixed machine speed (see Gauge); the raw wall-clock
figures are in the info line.  Every op's outputs are checked, and the
outputs of the first trace_ops ops go into a SHA-256 digest that must be
equal for equal seeds.  The last stdout line is the JSON result; the line
before it describes the run.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 3
_R = 0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001


class Gauge:
    """Machine-speed correction for a shared host.

    The speed of the host drifts by up to 1.5x within minutes, which no
    run length averages away.  A gauge sample times a fixed pure-Python loop
    (big-integer products and dict updates, the two kinds of work rabe does;
    no rabe code enters it) after an op, at most every PERIOD seconds.
    factors() gives each op REFERENCE_S over the mean of the samples taken
    just before and just after it.  REFERENCE_S is the gauge's time on a
    quiet run of the reference machine, so scaled times read as seconds at
    that machine's speed.
    """

    PERIOD = 0.5
    REFERENCE_S = 0.0015

    def __init__(self):
        self.marks: list[tuple[int, float]] = []   # (ops done, gauge seconds)
        self._next = 0.0

    def sample(self, done):
        t0 = time.perf_counter()
        x = 3
        for _ in range(2500):
            x = x * x % _R
        d = {}
        for i in range(1500):
            d[i & 63] = (d.get(i * 7 & 63, 0) * 31 + i) & 0xFFFF
        now = time.perf_counter()
        self.marks.append((done, now - t0))
        self._next = now + self.PERIOD

    def poll(self, done):
        if time.perf_counter() >= self._next:
            self.sample(done)

    def factors(self, n):
        """REFERENCE_S / gauge for each of n ops; needs samples at 0 and n."""
        out = []
        j = 0
        for i in range(n):
            while self.marks[j + 1][0] <= i:
                j += 1
            out.append(2 * self.REFERENCE_S / (self.marks[j][1] + self.marks[j + 1][1]))
        return out

    def median_ms(self):
        return statistics.median(g for _, g in self.marks) * 1e3


def _percentile(sorted_values, pct):
    """Linear interpolation between closest ranks."""
    pos = pct / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def machine():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def run_pass(w, failures, tracer=None, n_ops=None, seconds=None):
    """Run whole blocks: exactly n_ops ops, or until `seconds` have passed
    and w.min_ops ops are done.  Returns raw latencies (s), the gauge and
    the digest of the first w.trace_ops ops' outputs."""
    from workloads import Failed

    run = tracer.root("op", w.run) if tracer else w.run
    lat: list[float] = []
    digest = hashlib.sha256()
    gauge = Gauge()
    w.reset()
    start = time.perf_counter()
    gauge.sample(0)
    b = 0
    while True:
        if n_ops is not None:
            if len(lat) >= n_ops:
                break
        elif len(lat) >= w.min_ops and time.perf_counter() - start >= seconds:
            break
        for op in w.block(b):
            if tracer:
                tracer.op = len(lat)
                tracer.on = True
            t0 = time.perf_counter()
            try:
                result = run(op)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = exc
            lat.append(time.perf_counter() - t0)
            if tracer:
                tracer.on = False
            try:
                if error is not None:
                    raise Failed(
                        "".join(traceback.format_exception_only(type(error), error)).strip()
                    )
                record = w.check(op, result)
            except Failed as exc:
                failures.append(f"op {len(lat) - 1}: {exc}")
                record = f"failed {type(error).__name__ if error else 'check'}".encode()
            if len(lat) <= w.trace_ops:
                digest.update(len(record).to_bytes(8, "big") + record)
            gauge.poll(len(lat))
        b += 1
    gauge.sample(len(lat))
    return lat, gauge, digest.hexdigest()


def timed_setup(w, import_s):
    """setup_s, scaled and raw: import time plus the median set-up."""
    gauge = Gauge()
    gauge.sample(0)
    repeats = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        w.setup()
        repeats.append(time.perf_counter() - t0)
        gauge.sample(i + 1)
    f = gauge.factors(SETUP_REPEATS)
    scaled = import_s * f[0] + statistics.median(r * k for r, k in zip(repeats, f))
    return scaled, import_s + statistics.median(repeats), repeats


def latency_metrics(lat, pct):
    values = sorted(v * 1e3 for v in lat)
    tail = _percentile(values, pct)
    return {
        "ops_per_s": len(values) / (sum(values) / 1e3),
        "op_p50_ms": _percentile(values, 50),
        "op_tail_ms": tail,
    }, sum(v > tail for v in values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rabe", "__init__.py")):
        print(f"no rabe sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    import workloads

    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    w = workloads.make(args.workload, args.seed, os.path.join(OUT_DIR, f"work-{os.getpid()}"))
    failures: list[str] = []
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "one closed-loop client, one process, no threads",
        "machine": machine(),
        "gauge_reference_ms": Gauge.REFERENCE_S * 1e3,
    }
    try:
        if args.trace == 0:
            setup_s, raw_setup_s, repeats = timed_setup(w, import_s)
            lat, gauge, digest = run_pass(w, failures, seconds=args.seconds)
            scaled = [v * f for v, f in zip(lat, gauge.factors(len(lat)))]
            latency, beyond = latency_metrics(scaled, w.tail_pct)
            raw, _ = latency_metrics(lat, w.tail_pct)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (latency["ops_per_s"], "1/s"),
                "op_p50_ms": (latency["op_p50_ms"], "ms"),
                "op_tail_ms": (latency["op_tail_ms"], "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            attempted = len(lat)
            info.update(
                samples=len(lat),
                tail_percentile=w.tail_pct,
                tail_samples_beyond=beyond,
                digest=digest,
                gauge_median_ms=gauge.median_ms(),
                gauge_samples=len(gauge.marks),
                raw=dict(raw, setup_s=raw_setup_s, import_s=import_s, setup_repeats_s=repeats),
            )
        else:
            w.setup()
            lat_plain, gauge_plain, digest_plain = run_pass(w, failures, n_ops=w.trace_ops)
            tracer = spans.Tracer()
            tracer.install()
            try:
                lat_traced, gauge, digest = run_pass(w, failures, tracer=tracer, n_ops=w.trace_ops)
            finally:
                tracer.uninstall()
            checked, violations = spans.cost_model_check(tracer)
            attempted = len(lat_plain) + len(lat_traced)
            factors = gauge.factors(len(lat_traced))
            layer = spans.layer_metrics(tracer, factors)
            plain_s = sum(v * f for v, f in zip(lat_plain, gauge_plain.factors(len(lat_plain))))
            traced_s = sum(v * f for v, f in zip(lat_traced, factors))
            layer["trace.overhead_ratio"] = traced_s / plain_s - 1
            layer["fail_ratio"] = len(failures) / attempted
            metrics = {name: (layer[name], unit) for name, unit, _ in spans.metric_specs()}
            path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
            tracer.dump(path)
            info.update(
                ops=len(lat_traced),
                digest=digest,
                digest_untraced=digest_plain,
                counts_digest=tracer.counts_digest(),
                cost_model={"checked": checked, "violations": violations[:20]},
                ops_per_s_untraced=len(lat_plain) / plain_s,
                ops_per_s_traced=len(lat_traced) / traced_s,
                spans=len(tracer.spans),
                span_file=os.path.relpath(path, ROOT),
            )
            if violations or checked == 0:
                failures.append(f"cost model: {checked} spans checked, {len(violations)} violations")
            if digest != digest_plain:
                failures.append("traced outputs differ from untraced outputs")
    finally:
        w.close()

    info["fail_ratio"] = len(failures) / attempted
    info["failures"] = failures[:20]
    for line in failures[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
