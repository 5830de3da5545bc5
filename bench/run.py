"""envlab benchmark: one workload per process, a closed loop with a single
client (each job starts when the previous one has finished, no threads).

    python3 bench/run.py --workload envelope --seed 1 --seconds 20 --trace 0

Workloads: envelope, extfield, mackey, table-a (see workloads.py and
design.json for what each exercises).  A run builds the inputs from the
seed, then makes a fixed number of whole passes over the jobs, each pass
in an order drawn from the seed.  Outputs are hashed; every pass must
reproduce the first pass's bytes, and each distinct output is checked
(checks run after the timed loop).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes until --seconds have passed, the traced ones recording
spans around envlab's public functions (spans.py), and prints the
per-layer metrics.  Either way the last line of stdout is one JSON object; the full
results (output hashes, every latency, recorded fields, check failures)
go to .bench_out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("envelope", "extfield", "mackey", "table-a")

# Passes in a 20 s run; other --seconds scale them.  A pass takes about
# 6.5, 3.5, 1.25 and 3.2 s at the seed commit (2 cores, Python 3.11, numpy
# 2.4).  The counts are fixed, not timed, so that every commit compared
# gets the same sample count and so the same tail percentile; they are
# chosen so that the tail falls among the samples of one job, not on the
# edge between a fast job and a much slower one.
PASSES_PER_20S = {"envelope": 3, "extfield": 7, "mackey": 13, "table-a": 6}
SETUP_SAMPLES = 3       # set-up is repeated, in fresh processes, for a median
TAIL_BEYOND = 10
# The machine shares its cores with other tenants, and its speed drifts by
# a quarter within minutes, for envlab and any other code alike.  So after
# each job a fixed probe (_speed_probe) runs for PROBE_SHARE of the job's
# time (at least one rep), and each pass's seconds are rescaled to a
# machine on which one probe rep takes PROBE_REF_S (about the median at
# the seed commit here).  Raw wall-clock figures are kept in the results.
PROBE_REF_S = 0.0110
PROBE_SHARE = 0.05


class BenchError(Exception):
    """The benchmark cannot run here (no envlab source next to it)."""


def _import_envlab():
    """Import envlab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "envlab", "__init__.py")):
        raise BenchError(f"no envlab source under {SRC}")
    sys.path.insert(0, SRC)
    import envlab
    if not os.path.abspath(envlab.__file__).startswith(SRC + os.sep):
        raise BenchError(f"envlab imported from {envlab.__file__}, not {SRC}")


def setup(workload, seed, input_dir):
    """Import envlab, build the fields and write the seeded inputs.
    Returns (seconds, jobs)."""
    start = time.perf_counter()
    _import_envlab()
    import workloads
    jobs = workloads.build_jobs(workload, seed, input_dir)
    return time.perf_counter() - start, jobs


def setup_samples(args, first):
    """The in-process set-up time plus SETUP_SAMPLES - 1 fresh processes."""
    samples = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _speed_probe():
    """Seconds for one rep of a fixed piece of work outside envlab: a BFS
    closure of SL2(F_13) in plain numpy, the same mix of small matrix
    products, byte keys and Python loops as envlab's hot path."""
    import numpy as np

    start = time.perf_counter()
    gens = [np.array([[1, 1], [0, 1]]), np.array([[1, 0], [1, 1]])]
    ident = np.eye(2, dtype=np.int64)
    seen, frontier = {ident.tobytes()}, [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = (a @ g) % 13
                key = b.tobytes()
                if key not in seen:
                    seen.add(key)
                    nxt.append(b)
        frontier = nxt
    assert len(seen) == 2184
    return time.perf_counter() - start


def run_pass(jobs, order_rng, recorder=None, job_base=0):
    """One pass over the jobs in a seeded order, with the speed probe run
    after each job.  Returns (records, wall, speed): a record is (job
    index, seconds, output bytes or None, error), wall is the pass time
    without the probes, and speed is the factor that scales the pass's
    seconds to reference-speed seconds."""
    order = list(range(len(jobs)))
    order_rng.shuffle(order)
    records, probe_s, reps = [], 0.0, 0
    start = time.perf_counter()
    for i in order:
        job = jobs[i]
        if job.before is not None:
            job.before()
        # every job starts from a collected heap, as a fresh CLI process
        # would, whatever garbage the jobs before it left
        gc.collect()
        t0 = time.perf_counter()
        try:
            if recorder is None:
                out = job.run()
            else:
                out = recorder.run_job(job_base + i, job.run)
            err = None
        except Exception as ex:  # a failed job is counted; the run goes on
            out, err = None, f"{type(ex).__name__}: {ex}"
        sec = time.perf_counter() - t0
        records.append((i, sec, out, err))
        spent = 0.0
        while spent == 0.0 or spent < PROBE_SHARE * sec:
            spent += _speed_probe()
            reps += 1
        probe_s += spent
    wall = time.perf_counter() - start - probe_s
    return records, wall, PROBE_REF_S * reps / probe_s


def judge(jobs, passes):
    """Count failed attempts: errors, outputs that fail their check, and
    outputs that differ from the job's first output.  Each distinct output
    is checked once.  Returns (failed, problems, hashes, recorded)."""
    first_hash, verdicts, problems, recorded = {}, {}, [], {}
    failed = 0
    for records in passes:
        for i, _, out, err in records:
            job = jobs[i]
            if err is not None:
                failed += 1
                problems.append(f"{job.name}: {err}")
                continue
            digest = hashlib.sha256(out).hexdigest()
            if digest not in verdicts:
                try:
                    doc = json.loads(out)
                    found = job.check(doc)
                    recorded.setdefault(job.name, job.recorded(doc))
                except (ValueError, KeyError, TypeError) as ex:
                    found = [f"unreadable output: {type(ex).__name__}: {ex}"]
                verdicts[digest] = found
                problems.extend(f"{job.name}: {p}" for p in found)
            ref = first_hash.setdefault(job.name, digest)
            if ref != digest:
                problems.append(f"{job.name}: output differs from its first pass")
            if verdicts[digest] or ref != digest:
                failed += 1
    return failed, problems, first_hash, recorded


def latency_stats(lats):
    lats = sorted(lats)
    n = len(lats)
    beyond = min(TAIL_BEYOND, n - 1)
    return {"p50": statistics.median(lats), "tail": lats[n - 1 - beyond],
            "tail_percentile": 100.0 * (n - beyond) / n, "samples": n}


def end_to_end(args, jobs, setup_s):
    k = len(jobs)
    n_pass = max(2, round(PASSES_PER_20S[args.workload] * args.seconds / 20))
    order_rng = random.Random(args.seed)
    passes, walls, speeds = [], [], []
    for _ in range(n_pass):
        records, wall, speed = run_pass(jobs, order_rng)
        passes.append(records)
        walls.append(wall)
        speeds.append(speed)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = latency_stats([sec * speed for records, speed in zip(passes, speeds)
                           for _, sec, _, _ in records])
    raw = latency_stats([sec for records in passes for _, sec, _, _ in records])
    speed = statistics.median(speeds)
    metrics = {
        "jobs_per_s": (n_pass * k / sum(w * s for w, s in zip(walls, speeds)), "1/s"),
        "job_s_p50": (stats["p50"], "s"),
        "job_s_tail": (stats["tail"], "s"),
        "setup_s": (statistics.median(setup_s) * speed, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    extra = {"passes": n_pass, "speed_factors": speeds, "pass_walls_s": walls,
             "samples": [[jobs[i].name, p, sec] for p, records in enumerate(passes)
                         for i, sec, _, _ in records],
             "tail_percentile": stats["tail_percentile"],
             "tail_samples": stats["samples"],
             "raw": {"wall_s": sum(walls), "jobs_per_s": n_pass * k / sum(walls),
                     "job_s_p50": raw["p50"], "job_s_tail": raw["tail"],
                     "setup_samples_s": setup_s}}
    return passes, metrics, extra


def per_layer(args, jobs):
    import spans

    k = len(jobs)
    order_rng = random.Random(args.seed)
    rec = spans.Recorder()
    passes, elapsed = [], 0.0
    rate_s = {False: [0.0, 0], True: [0.0, 0]}  # traced? -> [seconds, passes]
    # untraced and traced passes alternate, so that drift and the first
    # pass's warm-up do not land on one side of the overhead ratio
    while elapsed < args.seconds or len(passes) < 2:
        traced = len(passes) % 2 == 1
        if traced:
            with spans.Installed(rec):
                records, wall, speed = run_pass(jobs, order_rng, rec,
                                                job_base=len(passes) * k)
        else:
            records, wall, speed = run_pass(jobs, order_rng)
        passes.append(records)
        elapsed += wall
        rate_s[traced][0] += wall * speed
        rate_s[traced][1] += 1
    n_traced = rate_s[True][1]
    os.makedirs(OUT, exist_ok=True)
    spans.save(rec, os.path.join(OUT, f"spans-{args.workload}.npz"))
    layers, job_total = spans.summarize(rec)
    metrics = {}
    for name, v in layers.items():
        metrics[name + ".calls"] = (v["calls"] / n_traced, "count")
        metrics[name + ".errors"] = (v["errors"] / n_traced, "count")
        metrics[name + ".self_pct"] = (100.0 * v["self_s"] / job_total, "%")
    calls = layers["fieldcore.closure"]["calls"]
    metrics["fieldcore.closure.cold_calls"] = (rec.cold_calls / n_traced, "count")
    metrics["fieldcore.closure.elements"] = (rec.cold_elements / n_traced, "count")
    metrics["fieldcore.closure.reuse_ratio"] = (
        (calls - rec.cold_calls) / calls if calls else 0.0, "ratio")
    untraced_rate = rate_s[False][1] * k / rate_s[False][0]
    traced_rate = n_traced * k / rate_s[True][0]
    metrics["trace.untraced_jobs_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_jobs_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_x"] = (untraced_rate / traced_rate, "ratio")
    extra = {"passes": len(passes), "traced_passes": n_traced,
             "spans": len(rec.start),
             "closure_reuse_base_calls": calls / n_traced,
             "self_s_per_pass": {n: v["self_s"] / n_traced for n, v in layers.items()}}
    return passes, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for key in [k for k in os.environ if k.startswith("ENVLAB_")]:
        del os.environ[key]
    warnings.simplefilter("ignore")  # nori warns once per job; reports keep it

    input_dir = os.path.join(OUT, "probe" if args.setup_probe else "inputs",
                             args.workload)
    try:
        first_setup, jobs = setup(args.workload, args.seed, input_dir)
    except BenchError as ex:
        print(f"bench: {ex}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(first_setup)
        return 0

    if args.trace:
        passes, metrics, extra = per_layer(args, jobs)
    else:
        passes, metrics, extra = end_to_end(
            args, jobs, setup_samples(args, first_setup))
    check_start = time.perf_counter()
    failed, problems, hashes, recorded = judge(jobs, passes)
    extra["check_s"] = time.perf_counter() - check_start
    attempted = sum(len(r) for r in passes)

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "output_sha256": hashes, "recorded": recorded,
        **extra,
        "machine": {"python": platform.python_version(),
                    "numpy": sys.modules["numpy"].__version__,
                    "cpus": os.cpu_count(), "platform": platform.platform()},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)

    for p in problems:
        print(f"FAILED {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    if not args.trace:
        print(f"job_s_tail is the p{extra['tail_percentile']:.1f} of "
              f"{extra['tail_samples']} samples")
    combined = hashlib.sha256("".join(
        f"{name}:{digest}\n" for name, digest in sorted(hashes.items())).encode())
    print(f"outputs_sha256 {combined.hexdigest()} (per job in the results)")
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
