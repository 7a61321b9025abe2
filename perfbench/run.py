"""Benchmark of the jdl contact-dual-pair verifier.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dp-darboux5 --seed 1 --seconds 40 --trace 0

It imports ``jdl`` from ``src/`` of that checkout, draws the workload's
inputs from ``--seed``, runs the workload's job list again and again for
``--seconds`` seconds in this one process, each pass on the next of its
input sets and with the host speed probe of ``hostspeed.py`` between its
jobs, runs the input sets no pass reached once more untimed, and checks
every verdict against the table in ``specs.py``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (``END_TO_END``), measured with no wrapper
installed, their times in seconds at reference host speed.  With
``--trace 1`` the first half of the time runs untraced passes and one traced
pass follows; the metrics are the per-layer ones (``traced_metrics``), in
wall seconds.  The line before it carries the details: host, slowdown, wall
set-up and job times, mismatching verdicts and the exceptions raised.
"""
import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import checkout

SETUP_REPS = 10
BENCH_MODULES = ("specs", "workloads", "tracing")
WORKLOAD_NAMES = ("dp-darboux5", "dp-wide", "leaves-liepoisson")

END_TO_END = {
    "run_s": "s",
    "slowest_job_s": "s",
    "setup_s": "s",
    "headroom_dec": "dec",
    "peak_rss_mb": "MB",
}


def host_info():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def fresh_import():
    """Import jdl and the benchmark's modules anew; return ``workloads``."""
    for name in list(sys.modules):
        if name == "jdl" or name.startswith("jdl.") or name in BENCH_MODULES:
            del sys.modules[name]
    return importlib.import_module("workloads")


class Session:
    """The set-ups and timed passes of one run.

    Host speed on a shared machine drifts over seconds to minutes, so the
    set-ups are spread over the run: ``SETUP_REPS`` at the start and one
    before every pass, each a fresh import with fresh specs and inputs.
    ``probe`` runs after every job of a timed pass.
    """

    def __init__(self, workload_name, seed, probe):
        self.workload_name = workload_name
        self.seed = seed
        self.probe = probe
        self.setup_times = []
        self.passes = []

    def set_up(self):
        """Import jdl, build the specs and draw the inputs."""
        gc.collect()
        t0 = time.perf_counter()
        self.workloads = fresh_import()
        self.workload = self.workloads.workloads()[self.workload_name]
        self.inputs = self.workloads.make_inputs(self.workload, self.seed)
        self.setup_times.append(time.perf_counter() - t0)

    def timed_passes(self, budget):
        """Run passes, at least one, while the next one and its probes are
        expected to end within ``budget`` seconds.  Pass ``i`` runs on input
        set ``i`` modulo ``INPUT_SETS``."""
        for _ in range(SETUP_REPS):
            self.set_up()
        start = time.perf_counter()
        while True:
            self.set_up()
            if self.passes:
                # only the last pass keeps its specs and their memo caches
                for job in self.passes[-1]:
                    job.spec = None
            t0 = time.perf_counter()
            index = len(self.passes) % self.workloads.INPUT_SETS
            self.passes.append(self.workloads.run_pass(
                self.workload, self.inputs, index, self.probe.after_job))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > budget:
                return


def run_seconds(results):
    return sum(job.seconds for job in results)


def judge(workloads, passes):
    """Count verdicts and mismatches over all passes; list what differed."""
    attempted = failed = 0
    bad = set()
    for results in passes:
        for job in results:
            keys, n = workloads.mismatches(
                job, workloads.specs.expected(job.spec_id))
            attempted += n
            failed += len(keys)
            bad.update(f"{job.spec_id}.{k}" for k in keys)
    return attempted, failed, sorted(bad)


def traced_metrics(tracer, traced, untraced_run_s):
    """Per-layer metrics of the traced pass ``traced``: name -> (value, unit).

    ``untraced_run_s`` is the median wall time of the untraced passes.
    """
    tracing = importlib.import_module("tracing")
    out = {f"{layer}.s": (tracer.self_s[layer], "s")
           for layer in tracing.LAYERS}
    out.update({f"{layer}.incl_s": (tracer.incl_s[layer], "s")
                for layer in tracing.INCLUSIVE})
    out.update({f"{layer}.calls": (tracer.calls[layer], "count")
                for layer in ("fields.jet_solve", "fields.eval", "linalg",
                              "chart.tangent_map")})
    steps = sum(rep.samples - 1 for job in traced for rep in job.reports
                if rep.check_id == "leaf_trace")
    trace_s = tracer.incl_s["leaves.leaf_trace"]
    out.update({
        "jets.constructed": (tracer.counts["jets.constructed"], "count"),
        "fields.memo_hit_ratio": (tracer.memo_hit_ratio, "ratio"),
        "linalg.svd_calls": (tracer.counts["linalg.svd_calls"], "count"),
        "leaves.rk4_steps": (tracer.counts["leaves.rk4_steps"], "count"),
        "leaves.step_ms": (1000.0 * trace_s / steps if steps else 0.0, "ms"),
    })
    out.update({f"{m}.errors": (tracer.errors[m], "count")
                for m in tracing.MODULES})
    out["trace.overhead_s"] = (run_seconds(traced) - untraced_run_s, "s")
    out["src.lines"] = (checkout.source_lines(), "lines")
    return out


def per_layer_units():
    """Name and unit of every per-layer metric, in output order."""
    empty = importlib.import_module("tracing").Tracer()
    return {name: unit for name, (_, unit)
            in traced_metrics(empty, [], 0.0).items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    checkout.pin_blas()  # before anything imports numpy
    try:
        checkout.use_checkout_sources()
    except checkout.MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    host = host_info()  # imports numpy before the first timed set-up
    import hostspeed  # imports numpy, so not before pin_blas
    session = Session(args.workload, args.seed, hostspeed.Probe())
    session.timed_passes(args.seconds / 2 if args.trace else args.seconds)
    workloads, passes = session.workloads, session.passes
    run_s = statistics.median(run_seconds(p) for p in passes)
    slowdown = session.probe.slowdown
    details = {"workload": args.workload, "seed": args.seed,
               "host": host, "slowdown": slowdown, "passes": len(passes),
               "setup_s": session.setup_times,
               "job_s": {job.spec_id: [p[i].seconds for p in passes]
                         for i, job in enumerate(passes[0])}}

    if args.trace:
        tracing = importlib.import_module("tracing")
        gc.collect()
        with tracing.Tracer() as tracer:
            traced = workloads.run_pass(session.workload, session.inputs)
        judged = passes + [traced]
        metrics = traced_metrics(tracer, traced, run_s)
        details["layer_incl_s"] = dict(sorted(tracer.incl_s.items()))
    else:
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # headroom over every input set: pass i ran set i, and the sets no
        # pass reached are checked untimed on the specs of the last pass,
        # built by the modules imported now
        by_set = passes[:workloads.INPUT_SETS]
        checked = workloads.check_sets(
            session.workload, session.inputs, passes[-1],
            range(len(by_set), workloads.INPUT_SETS))
        judged = passes + checked
        metrics = {
            "run_s": run_s / slowdown,
            "slowest_job_s": statistics.median(
                max(job.seconds for job in p) for p in passes) / slowdown,
            "setup_s": statistics.median(session.setup_times) / slowdown,
            "headroom_dec": statistics.median(
                workloads.headroom_dec(p) for p in by_set + checked),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (metrics[name], unit)
                   for name, unit in END_TO_END.items()}

    attempted, failed, bad = judge(workloads, judged)
    details.update({
        "verdict_mismatch_frac": failed / attempted,
        "mismatches": bad,
        "raised": sorted({r for p in judged for job in p for r in job.raised}),
    })
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
