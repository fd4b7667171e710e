"""hilbmac end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  One process, no threads.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0: set-up, then whole rounds of the workload's job list, as many as
  fit in S seconds (at least one).  Every round starts from a fresh import of
  hilbmac, so module caches are as a new process finds them.  Every job and
  every set-up is timed between two runs of a fixed probe and scaled to the
  probe's reference speed.  Times are summed over jobs of each job's median
  over rounds; set-up is the median of every set-up.  A result equal to one
  that passed its check in an earlier round is not checked again.
--trace 1: a warm-up round, an untraced round, then a traced round; reports
  the per-layer metrics and writes them, with the parent -> child span edges,
  to perfbench/out/trace_<workload>.json.

An operation is one job together with its check; a job that raises counts as
failed, a job whose result fails its check makes ``correct`` false.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS_BEFORE_FIRST_ROUND = 15

# The machine's speed changes by up to half, for seconds to minutes at a time,
# and all Python code slows alike.  So every timed interval is scaled to a
# reference speed: it is multiplied by PROBE_REF_S over the time of a fixed
# probe run right before and right after it.  PROBE_REF_S is the probe's
# typical time on the 2-core container the bounds were set on.
PROBE_REF_S = 0.0020


def probe():
    """Run the fixed probe (Fraction sums, small dicts with tuple keys, int
    arithmetic); returns its wall and CPU seconds.  Its objects are few and
    short-lived, and the collector is off while it runs, so the probe does not
    depend on how much memory the program holds."""
    gc.disable()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    x = Fraction(0)
    for k in range(1, 150):
        x += Fraction(k, k + 7)
    for r in range(12):
        d = {}
        for k in range(250):
            d[(k, r)] = k * k
    s = 0
    for k in range(6000):
        s += k * k % 7
    took = time.perf_counter() - wall0, time.process_time() - cpu0
    gc.enable()
    return took


def at_reference_speed(seconds: float, *probe_seconds: float) -> float:
    return seconds * PROBE_REF_S / statistics.fmean(probe_seconds)


def purge_program():
    """Forget every hilbmac module, so the next import starts afresh."""
    for name in [n for n in sys.modules if n == "hilbmac" or n.startswith("hilbmac.")]:
        # typing's caches keep the old classes, and through their methods the
        # old module globals and caches; emptying the namespace frees those.
        sys.modules.pop(name).__dict__.clear()
    gc.collect()


def setup(workload: str, seed: int):
    """Import hilbmac, its CLI and its gate, load the built-in surface data,
    and generate the workload's inputs from the seed."""
    hb = importlib.import_module("hilbmac")
    importlib.import_module("hilbmac.cli")
    importlib.import_module("hilbmac.acceptance")
    for surface in ("P2", "P1xP1"):
        hb.hilbert.load_surface(surface)
    return hb, workloads.make_inputs(workload, seed)


def fresh_setup(workload: str, seed: int):
    """Set up again after dropping the previous import; returns the seconds
    set-up took, at reference speed."""
    purge_program()
    before = probe()[0]
    t0 = time.perf_counter()
    hb, inputs = setup(workload, seed)
    took = time.perf_counter() - t0
    return hb, inputs, at_reference_speed(took, before, probe()[0])


def cpu_seconds() -> float:
    """User plus system CPU of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def sum_of_job_medians(rounds, attr: str) -> float:
    """Sum over jobs of the job's median over rounds."""
    per_job = [getattr(r, attr) for r in rounds]
    return sum(statistics.median(times[name] for times in per_job) for name in per_job[0])


class Round:
    def __init__(self, hb, inputs, workload: str, tracer=None, passed=None):
        """Run the job list once, then check every result.  ``passed`` maps a
        job to the rendered result of an earlier round that passed its check;
        a result equal to it is not checked again."""
        jobs = workloads.WORKLOADS[workload](hb, inputs)
        results, self.failed = {}, []
        # job times at reference speed, and as measured
        self.job_wall_s, self.job_cpu_s, self.measured_wall_s = {}, {}, 0.0
        gc.collect()
        if tracer is not None:
            tracer.on = True
        before = probe()
        self.probe_s = [before[0]]
        for job in jobs:
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            try:
                results[job.name] = job.run()
            except Exception:
                self.failed.append(job.name)
                print(f"job {job.name!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
            wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
            after = probe()
            self.job_wall_s[job.name] = at_reference_speed(wall, before[0], after[0])
            self.job_cpu_s[job.name] = at_reference_speed(cpu, before[1], after[1])
            self.measured_wall_s += wall
            self.probe_s.append(after[0])
            before = after
        if tracer is not None:
            tracer.on = False
        self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.wall_s = sum(self.job_wall_s.values())
        self.attempted = len(jobs)
        self.mono_key_cache_entries = len(hb.exactalg.poly._MONO_KEY_CACHE)
        self.cli_output_bytes = sum(len(r) for r in results.values() if isinstance(r, str))

        ctx = workloads.Ctx(inputs)
        rendered = {name: workloads.render(r) for name, r in results.items()}
        self.result_bytes = sum(workloads.coefficient_bytes(r) for r in rendered.values())
        self.wrong = []
        passed = {} if passed is None else passed
        for job in jobs:
            if job.name in self.failed or (job.name in passed
                                           and passed[job.name] == rendered[job.name]):
                continue
            try:
                job.check(rendered, ctx)
                passed[job.name] = rendered[job.name]
            except workloads.CheckFailed as exc:
                self.wrong.append(job.name)
                print(f"check of {job.name!r} failed: {exc}", file=sys.stderr)
            except KeyError as exc:   # a job it compares with failed
                self.failed.append(job.name)
                print(f"check of {job.name!r} lacks result {exc}", file=sys.stderr)
        self.max_num_terms, self.max_den_terms = ctx.max_terms()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float):
    hb, inputs = setup(workload, seed)
    took = time.perf_counter() - PROCESS_START
    setup_s = [at_reference_speed(took, probe()[0])]
    for _ in range(SETUPS_BEFORE_FIRST_ROUND - 1):
        hb, inputs, seconds_taken = fresh_setup(workload, seed)
        setup_s.append(seconds_taken)
    rounds, passed = [], {}
    start = time.perf_counter()
    while True:
        rounds.append(Round(hb, inputs, workload, passed=passed))
        elapsed = time.perf_counter() - start
        # another whole round only if it should end within the run's seconds
        if elapsed + elapsed / len(rounds) > seconds:
            break
        hb, inputs, seconds_taken = fresh_setup(workload, seed)
        setup_s.append(seconds_taken)
    for k, r in enumerate(rounds):
        print(f"round {k}: wall {r.wall_s:.3f} s at reference speed, {r.measured_wall_s:.3f} s "
              f"measured; median probe {statistics.median(r.probe_s) * 1e3:.3f} ms",
              file=sys.stderr)
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "wall_s": metric(sum_of_job_medians(rounds, "job_wall_s"), "s"),
        "cpu_s": metric(sum_of_job_medians(rounds, "job_cpu_s"), "s"),
        # as a process that runs the job list once: the peak up to the end of
        # the first round's jobs, before its checks
        "peak_rss_mib": metric(rounds[0].peak_rss_mib, "MiB"),
        "result_bytes": metric(rounds[0].result_bytes, "bytes"),   # the same every round
    }
    return rounds, metrics


PER_LAYER_CALLS = ["exactalg.poly_mul", "exactalg.divide_exact", "exactalg.ratfun_add",
                   "exactalg.rf_sum", "exactalg.ratfun_eq", "exactalg.canonical_str",
                   "partitions.cells", "symfun.to_p", "symfun.inner_product_qt",
                   "macdonald.eigen_tildeE", "correlators.bracket_bruteforce",
                   "correlators.vertex_correlator"]


def layer_metrics(per: dict, counts: dict, rnd: Round, plain: Round) -> dict:
    """The per-layer metrics of a traced round ``rnd``; ``plain`` is the
    untraced round run before it."""
    metrics = {}
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = metric(per[name]["calls"], "count")
    for name in spans.TARGETS:
        metrics[f"{name}.self_s"] = metric(per[name]["self_s"], "s")
    div_calls = per["exactalg.divide_exact"]["calls"]
    metrics.update({
        "exactalg.poly_mul.term_pairs": metric(counts["exactalg.poly_mul.term_pairs"], "count"),
        # 0 when nothing was divided (point_eval)
        "exactalg.divide_exact.success_ratio": metric(
            counts["exactalg.divide_exact.quotients"] / div_calls if div_calls else 0.0, "ratio"),
        "exactalg.max_num_terms": metric(rnd.max_num_terms, "terms"),
        "exactalg.max_den_terms": metric(rnd.max_den_terms, "terms"),
        "exactalg.mono_key_cache_entries": metric(rnd.mono_key_cache_entries, "count"),
        "cli.output_bytes": metric(rnd.cli_output_bytes, "bytes"),
        "trace.overhead_s": metric(rnd.wall_s - plain.wall_s, "s"),
    })
    return metrics


def traced(workload: str, seed: int):
    hb, inputs = setup(workload, seed)
    # the first round of a process runs slower than later ones; it is not compared
    warm_up = Round(hb, inputs, workload)
    hb, inputs, _ = fresh_setup(workload, seed)
    plain = Round(hb, inputs, workload)
    hb, inputs, _ = fresh_setup(workload, seed)
    tracer = spans.Tracer()
    tracer.install()
    rnd = Round(hb, inputs, workload, tracer)
    per, edges = tracer.summary()
    metrics = layer_metrics(per, tracer.counts, rnd, plain)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"trace_{workload}.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": len(tracer.span_name),
                   "untraced_wall_s": plain.wall_s, "traced_wall_s": rnd.wall_s,
                   "untraced_measured_wall_s": plain.measured_wall_s,
                   "traced_measured_wall_s": rnd.measured_wall_s,
                   "metrics": metrics, "layers": per, "edges": edges}, fh, indent=1, sort_keys=True)
    return [warm_up, plain, rnd], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hilbmac", "__init__.py")):
        print(f"hilbmac sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.trace:
        rounds, metrics = traced(args.workload, args.seed)
    else:
        rounds, metrics = end_to_end(args.workload, args.seed, args.seconds)
    wrong = [name for r in rounds for name in r.wrong]
    print(json.dumps({"correct": not wrong,
                      "attempted": sum(r.attempted for r in rounds),
                      "failed": sum(len(r.failed) for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
