#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign|analysis|serving \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the repository's libraries
plus the perfbench binary, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench.  Every run then executes the binary, checks each
iteration's output digest against the digest recorded for the input seed in
perfbench/digests.json, and prints one line per metric with its unit and
sample count.  The last line of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics.  A fuller record of the run (host
threads, build type, corpus shape, every metric) is written to
.bench_out/result_<workload>_seed<N>_trace<T>.json, and a traced run also
writes the Chrome trace_event spans there.

Re-record the digests after an intended output change with

    python3 perfbench/run.py --record-digests [--workload W]

which runs every workload (or W) once per input seed and rewrites its
entries in digests.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "analysis", "serving")
# --seed selects one of this many recorded input seeds (seed mod INPUT_SEEDS),
# so every input the benchmark can run has a recorded output digest.
INPUT_SEEDS = 16
# Host speed: the run's times are scaled by REFERENCE_MS over the median time
# of the reference mix the binary samples between iterations (see README.md).
REFERENCE_MS = 20.0
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure (once) and build the binary; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}", 2)
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(step)}", 2)
    return out / "perfbench"


def run_binary(binary, workload, input_seed, seconds, trace, work_dir, extra=()):
    cmd = [str(binary), "--workload", workload, "--seed", str(input_seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(work_dir),
           *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{workload} binary exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} binary printed no record")
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def host_reference_ms(samples):
    """Time of the reference mix: the sum of each part's median over `samples`."""
    parts = [key for key in samples[0] if key.endswith("_ms")]
    return sum(median([r[part] for r in samples]) for part in parts)


def output_digest(record, iteration):
    """An iteration's output digest, joined with the serving ladder's."""
    ladder = record["notes"].get("ladder_digest")
    return iteration["digest"] + ("+" + ladder if ladder else "")


def reduce_record(record, workload, recorded):
    """Metrics, attempted/failed and correctness of one binary record."""
    iters = record["iterations"]
    plain = [it["values"] for it in iters if not it["traced"]]
    traced = [it["values"] for it in iters if it["traced"]]
    entry = recorded.get(workload, {}).get(str(record["seed"]))
    expected = None
    problems = []
    if record["error"]:
        problems.append(record["error"])
    if entry is None:
        problems.append(f"no digest recorded for {workload} input seed {record['seed']}")
    elif entry["config"] != record["config"]:
        problems.append(f"digest recorded for config '{entry['config']}', "
                        f"ran '{record['config']}'")
    else:
        expected = entry["digest"]
    # Iteration i of a workload that cycles through several inputs checks
    # the digest recorded for input i % cycle (comma-separated, in order).
    parts = expected.split(",") if expected is not None else []
    mismatched = [i for i, it in enumerate(iters)
                  if parts and output_digest(record, it) != parts[i % len(parts)]]
    if mismatched:
        problems.append(f"output digest mismatch in iterations {mismatched} "
                        f"(expected {expected})")

    def values(key, source=None):
        return [v[key] for v in (source if source is not None else plain) if key in v]

    every = [it["values"] for it in iters]
    # Set-up is scaled by the host speed sampled around it, the timed part by
    # the speed sampled between its iterations.
    n = record["setup_references"]
    setup_speed = REFERENCE_MS / host_reference_ms(record["references"][:n])
    speed = REFERENCE_MS / host_reference_ms(record["references"][n:])
    setup = median(record["setup_s"])
    wall = median(values("wall_s"))
    cpu = median(values("cpu_s"))
    m = {}  # name -> (value, unit, samples, note)
    m["setup_s"] = (setup * setup_speed, "s", len(record["setup_s"]),
                    f"set-up repetitions, {setup:.4g} s x {setup_speed:.3f} host speed")
    m["wall_s"] = (wall * speed, "s", len(plain),
                   f"untraced iterations, {wall:.4g} s x {speed:.3f} host speed")
    m["cpu_s"] = (cpu * speed, "s", len(plain),
                  f"process user+sys, untraced, {cpu:.4g} s x {speed:.3f} host speed")
    # Peak resident set: set-up's, or the median iteration's when higher
    # (the watermark restarts before each iteration, so allocator growth
    # across iterations does not tie the value to the iteration count).
    setup_peak = record["run_values"]["setup_peak_rss_mb"]
    m["peak_rss_mb"] = (max(setup_peak, median(values("peak_rss_mb", every))), "MiB",
                        len(every), "max of set-up peak and median iteration peak")
    # Failure accounting: operations attempted in the timed part.
    if workload == "campaign":
        per_iter = [(v["cells_attempted"], v["cells_failed"]) for v in every]
    elif workload == "serving":
        per_iter = [(v["requests"], v["not_served"]) for v in every]
    else:  # one full pass of every experiment per iteration
        per_iter = [(1, 1 if record["error"] else 0) for _ in every]
    attempted = int(sum(a for a, _ in per_iter))
    failed = int(sum(a if i in mismatched else f for i, (a, f) in enumerate(per_iter)))
    m["fail_share"] = (failed / attempted if attempted else 1.0, "ratio", attempted,
                       "operations attempted (the base)")

    if workload == "campaign":
        cells = median(values("cells_ok"))
        m["cells_per_s"] = (cells / wall if wall else 0.0, "1/s", len(plain),
                            f"{cells:.0f} ok cells per iteration")
    if workload == "serving":
        requests = median(values("requests"))
        m["requests_per_s"] = (requests / wall if wall else 0.0, "1/s", len(plain),
                               f"{requests:.0f} requests resolved per iteration")
        samples = int(median(values("sim_latency_samples")))
        for q in ("sim_p50_ms", "sim_p99_ms"):
            m[q] = (median(values(q)), "ms", samples,
                    "simulated latency, histogram bucket midpoint")
        m["sim_max_rate_rps"] = (record["run_values"]["sim_max_rate_rps"], "1/s",
                                 sum(1 for k in record["run_values"] if k.endswith(".meets")),
                                 "ladder rates tried")

    # Per-layer metrics (traced runs).
    layers = {}
    run_values = record["run_values"]
    for key in set().union(*every) if every else ():
        if key.startswith(("ml.", "platform.", "eval.")):
            layers[key] = median(values(key, every))
    layers.update({k: v for k, v in run_values.items()
                   if k.startswith(("data.", "ml.", "platform.", "eval.", "layer."))})
    if workload == "serving":
        hits = median(values("platform.serving.cache_hits", every))
        misses = median(values("platform.serving.cache_misses", every))
        lookups = hits + misses
        layers["platform.serving.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        if "platform.train_ms" in run_values:
            trainings = median(values("platform.serving.trainings", every))
            rows = median(values("platform.serving.batched_rows", every))
            layers["platform.serving.router_s"] = (
                wall - trainings * run_values["platform.train_ms"] / 1e3
                - rows * run_values["ml.predict_us_per_row"] / 1e6)
    if traced:
        layers["trace.overhead_s"] = median(values("wall_s", traced)) - wall
    return m, layers, attempted, failed, problems


def describe_ratio(name, layers):
    """The base of each ratio, printed beside it."""
    get = lambda key: layers.get(key, 0.0)
    if name == "platform.serving.cache_hit_ratio":
        return (f"hits {get('platform.serving.cache_hits'):.0f} / (hits + misses "
                f"{get('platform.serving.cache_misses'):.0f})")
    if name == "platform.serving.batch_occupancy":
        return (f"batched rows {get('platform.serving.batched_rows'):.0f} / (batches "
                f"{get('platform.serving.batches'):.0f} x 64 max rows)")
    if name == "eval.scheduler.imbalance":
        return (f"max / mean worker busy time over {get('eval.scheduler.workers'):.0f} "
                f"workers")
    return ""


def run(args):
    bench = load_json(ROOT / "BENCHMARK.json")
    layer_info = {e["name"]: e for e in load_json(HERE / "layers.json")}
    recorded = load_json(HERE / "digests.json")
    for e in bench["per_layer"]:
        if e["name"] not in layer_info:
            fail(f"per_layer metric {e['name']} has no entry in perfbench/layers.json")

    binary = build()
    out_dir = ROOT / ".bench_out"
    input_seed = args.seed % INPUT_SEEDS
    record = run_binary(binary, args.workload, input_seed, args.seconds, args.trace, out_dir)
    m, layers, attempted, failed, problems = reduce_record(record, args.workload, recorded)
    correct = not problems

    print(f"# perfbench {args.workload}: seed {args.seed} (input seed {input_seed}), "
          f"{args.seconds} s, trace {args.trace}, build {record['build_type']}, "
          f"host_threads {record['host_threads']}, worker_threads {record['worker_threads']}")
    print(f"# config: {record['config']}")
    print("# shape: " + ", ".join(f"{k} {v}" for k, v in sorted(record["shape"].items())))
    refs, n = record["references"], record["setup_references"]
    print(f"# host speed: reference mix {host_reference_ms(refs[:n]):.3f} ms in set-up, "
          f"{host_reference_ms(refs[n:]):.3f} ms in the timed part ({n} and "
          f"{len(refs) - n} samples) against {REFERENCE_MS} ms; setup_s, wall_s and cpu_s "
          f"are scaled by the ratio")
    if args.workload == "serving":
        print("# serving runs on a simulated clock: each request is timed from its scheduled "
              "arrival, and the open-loop generator cannot run late.")
    for name, (value, unit, n, note) in m.items():
        print(f"{name:<22} {value:>16.6g} {unit:<6} n={n:<6} {note}")
    if args.trace:
        for name in sorted(layers):
            base = describe_ratio(name, layers)
            print(f"  {name:<40} {layers[name]:>14.6g}  {base}")
    for p in problems:
        print(f"# INCORRECT: {p}")

    if args.trace:
        wanted = bench["per_layer"]
        values = {}
        for e in wanted:
            measured_on = layer_info[e["name"]]["workloads"]
            if e["name"] in layers:
                values[e["name"]] = layers[e["name"]]
            elif args.workload in measured_on:
                fail(f"{args.workload} did not report per-layer metric {e['name']}")
            else:
                values[e["name"]] = 0.0  # the layer does no work in this workload
    else:
        wanted = bench["end_to_end"]
        values = {e["name"]: m[e["name"]][0] for e in wanted}
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in wanted}

    full = {"workload": args.workload, "seed": args.seed, "input_seed": input_seed,
            "seconds": args.seconds, "trace": args.trace,
            "host_threads": record["host_threads"], "worker_threads": record["worker_threads"],
            "build_type": record["build_type"], "config": record["config"],
            "shape": record["shape"], "problems": problems,
            "end_to_end": {k: {"value": v[0], "unit": v[1], "samples": v[2], "note": v[3]}
                           for k, v in m.items()},
            "per_layer": {k: {"value": v, "moves": layer_info.get(k, {}).get("moves")}
                          for k, v in layers.items()},
            "run_values": record["run_values"]}
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def record_digests(workloads):
    """Run each workload once per input seed and rewrite its digests.json entries."""
    binary = build()
    out_dir = ROOT / ".bench_out"
    path = HERE / "digests.json"
    table = load_json(path) if path.is_file() else {}
    for workload in workloads:
        table[workload] = {}
        for seed in range(INPUT_SEEDS):
            record = run_binary(binary, workload, seed, 0, 0, out_dir, ("--setups", "1"))
            if record["error"]:
                fail(f"{workload} seed {seed}: {record['error']}")
            cycle = int(record["run_values"]["input.cycle"])
            parts = []
            for k in range(cycle):
                found = {output_digest(record, it)
                         for i, it in enumerate(record["iterations"]) if i % cycle == k}
                if len(found) != 1:
                    fail(f"{workload} seed {seed}: iterations disagree: {sorted(found)}")
                parts.append(found.pop())
            table[workload][str(seed)] = {"config": record["config"], "digest": ",".join(parts)}
            print(f"{workload} {seed} {table[workload][str(seed)]['digest']}", file=sys.stderr)
    with open(path, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite perfbench/digests.json from the current code")
    args = parser.parse_args()
    if args.record_digests:
        record_digests([args.workload] if args.workload else WORKLOADS)
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.seed < 0:
        parser.error("--seed must be >= 0")
    else:
        run(args)


if __name__ == "__main__":
    main()
