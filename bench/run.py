"""The ltlx benchmark: one command, four seeded workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run it from the root of a checkout; it builds nothing, since ltlx is pure
Python and is imported from src/.  With --trace 0 it prints every
end-to-end metric, with --trace 1 every per-layer metric, and in both
cases the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --smoke runs every
workload at a tiny size, untraced and traced, and exits non-zero if any
output is wrong.

Inputs come from bench/gen.py and the seed; references never come from
ltlx.  Inputs that fail at the seed for a known reason are listed in
bench/known_failures.json and run once per run, outside the timed loop.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 15
WORKER_TIMEOUT_S = 170
MIN_PASSES = 4  # enough repeats of every input for the per-input means
TAIL_SAMPLES = 10  # timed samples beyond the tail percentile in every run
DEEP_CHAIN = 300

# Tail percentile per workload.  It is fixed, whatever the speed of the
# program; min_passes() makes every run long enough to hold TAIL_SAMPLES
# samples beyond it.
TAIL = {"wide-transform": 75, "structural-transform": 90, "document-pipeline": 75, "cli": 90}
# Eight small catalogs and four large ones on a log ladder up to 2000 items:
# at p75 the tail is the smallest large catalog and the three beyond it are
# larger, while the four passes the tail needs take about 30 seconds.
WIDE_SIZES = [*gen.ladder(200, 250, 8), *gen.ladder(500, 2000, 4)]


def listed_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        listed = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def generate(workload: str, seed: int, workdir: str, smoke: bool):
    """Return (ops, probes, files) and write the workload's rule and path files."""

    def write(name, text):
        path = os.path.relpath(os.path.join(workdir, name), ROOT)
        with open(os.path.join(ROOT, path), "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    probes = []
    if workload == "wide-transform":
        ops = gen.gen_wide(seed, [20, 40, 80] if smoke else WIDE_SIZES)
        files = {"wide": write("wide.ltl", gen.WIDE_RULES)}
    elif workload == "structural-transform":
        shapes = {"chain": (5, 20, 2), "tree": (3, 4, 2), "pair": (10, 40, 2), "pick": (3, 10, 2)}
        ops = gen.gen_structural(seed, shapes if smoke else gen.STRUCTURAL_SHAPES)
        probes = [gen.deep_chain_probe(seed, DEEP_CHAIN)]
        files = {"structural": write("structural.ltl", gen.STRUCTURAL_RULES)}
    elif workload == "document-pipeline":
        ops = gen.gen_pipeline(seed, *((2, 100, 300) if smoke else (12, 1000, 20000)))
        files = {"queries": write("queries.txt", "".join(p + "\n" for p in gen.PIPELINE_PATHS))}
    else:
        rel = os.path.relpath(workdir, ROOT)
        ops = gen.gen_cli(seed, rel)
        if smoke:
            ops = list({op.group: op for op in ops}.values())
        probes = [gen.latin1_probe(rel)]
        files = {"facts": os.path.join(rel, "facts.ltl"), "wide": os.path.join(rel, "wide.ltl")}
    return ops, probes, files


def percentile_index(count, q):
    """Index into `count` sorted values of the q-th percentile (nearest rank)."""
    return max(0, math.ceil(q / 100 * count) - 1)


def min_passes(workload, op_count):
    """Passes a run needs so that inputs beyond the tail times passes >= TAIL_SAMPLES."""
    beyond = op_count - 1 - percentile_index(op_count, TAIL[workload])
    return max(MIN_PASSES, math.ceil(TAIL_SAMPLES / beyond))


def median_setup_s(workload, files, runs):
    """Median seconds for a fresh interpreter to import ltlx and load the workload's files."""
    command = [sys.executable, os.path.join(HERE, "loader.py"), workload, *files.values()]
    subprocess.run(command, cwd=ROOT, check=True, capture_output=True, timeout=60)  # writes .pyc files
    times = []
    for _ in range(runs):
        proc = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True, timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times)


def cli_start_costs(runs=5):
    """(import ms of `import ltlx.cli` from -X importtime, wall ms of a bare interpreter)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    imports, bare = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ltlx.cli"],
                              cwd=ROOT, env=env, check=True, capture_output=True, text=True, timeout=60)
        total_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            # Top-level imports have no indentation in the package column.
            if len(parts) == 3 and not parts[2].startswith("  ") and parts[2].strip().split(".")[0] == "ltlx":
                total_us += int(parts[1])
        imports.append(total_us / 1000)
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, timeout=60)
        bare.append((time.perf_counter() - started) * 1000)
    return statistics.median(imports), statistics.median(bare)


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "ltlx", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def judge_probes(workload, outcomes):
    """(still-failing count, problems): a probe may pass, or fail only as listed."""
    with open(os.path.join(HERE, "known_failures.json"), encoding="utf-8") as handle:
        listed = {k["probe"]: k["error"] for k in json.load(handle) if k["workload"] == workload}
    open_count, problems = 0, []
    for outcome in outcomes:
        if outcome["ok"]:
            continue
        open_count += 1
        error = outcome["error"] or "output differs from the reference"
        if listed[outcome["id"]] not in error:
            problems.append(f"probe {outcome['id']} failed with {error}, not {listed[outcome['id']]}")
    return open_count, problems


def run(workload, seed, seconds, trace, smoke=False):
    """Run one workload; return (result line dict, report lines)."""
    workdir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops, probes, files = generate(workload, seed, workdir, smoke)
        spec = {
            "workload": workload, "seconds": seconds, "trace": trace, "files": files,
            "min_passes": 1 if smoke else min_passes(workload, len(ops)),
            "ops": [op.as_json() for op in ops], "probes": [p.as_json() for p in probes],
            "trace_out": os.path.join(OUT, f"trace-{workload}.tsv"),
        }
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        if not trace:
            setup_s = median_setup_s(workload, files, 1 if smoke else SETUP_RUNS)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path], cwd=ROOT,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed:\n{proc.stderr.strip()}")
        result = json.loads(proc.stdout.splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = result["ok"]
    attempted, failed = len(ok), len(ok) - sum(ok)
    open_count, problems = judge_probes(workload, result["probes"])
    problems += [f"{f.get('group', '?')}: {f['error']}" for f in result["failures"]]
    units = listed_units(trace)
    report = [f"workload {workload}  seed {seed}  {len(ops)} ops per pass"]
    if trace:
        metrics = dict(result["per_layer"])
        metrics["cli.import_ms"], metrics["cli.interpreter_ms"] = cli_start_costs(1 if smoke else 5)
        metrics["package.src_lines"] = src_lines()
        metrics["seed_failures.open"] = open_count
        report.append(f"  spans written to {os.path.relpath(spec['trace_out'], ROOT)}")
        report += [f"  {name:42} {value:.6g}" for name, value in metrics.items()]
    else:
        passes = result["passes"]
        # On a shared machine, speed swings between a fast and a slow state
        # as other processes come and go, so each input's latency is its mean
        # over passes: a median of a few samples jumps with the share of them
        # taken in the fast state, a mean moves in proportion.  A failed run
        # of an input counts as its whole pass.
        per_input = [
            statistics.mean(t if good else p["seconds"] for p in passes
                            for t, good in [(p["latencies"][i], p["ok"][i])])
            for i in range(len(ops))
        ]
        tail = TAIL[workload]
        loop_s = sum(p["seconds"] for p in passes)
        metrics = {
            "ops_per_s": sum(ok) / loop_s,
            "latency_p50_ms": 1000 * statistics.median(per_input),
            "latency_tail_ms": 1000 * sorted(per_input)[percentile_index(len(per_input), tail)],
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        report.append(f"  {len(passes)} passes, {attempted} ops in {loop_s:.2f} s")
        report += [f"  {name:16} {value:12.4f} {units[name]}" for name, value in metrics.items()]
        report.append(f"  {'failed_ratio':16} {failed / attempted:12.4f} ({failed} of {attempted})")
        report.append(f"  tail percentile p{tail}; setup_s is the median of {SETUP_RUNS} fresh workers")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    for outcome in result["probes"]:
        state = "passes" if outcome["ok"] else f"fails: {outcome['error']}"
        report.append(f"  known seed failure {outcome['id']}: {state}")
    report += [f"  PROBLEM {p}" for p in problems]
    line = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(TAIL))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ltlx", "__init__.py")):
        sys.exit(f"bench: no ltlx sources under {os.path.join(ROOT, 'src')}; run from a checkout")
    if args.smoke:
        broken = []
        for workload in TAIL:
            for trace in (0, 1):
                started = time.perf_counter()
                line, report = run(workload, args.seed, 0, trace, smoke=True)
                verdict = "ok" if line["correct"] else "FAILED"
                print(f"smoke {workload:22} trace={trace} {verdict} ({line['attempted']} ops, "
                      f"{time.perf_counter() - started:.1f} s)")
                if not line["correct"]:
                    broken.append(workload)
                    print("\n".join(report))
        sys.exit(1 if broken else 0)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    line, report = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(report))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
