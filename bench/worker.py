"""Runs one workload in a fresh process and prints raw timings as JSON.

run.py starts this file; it is not meant to be run by hand:

    worker.py SPEC.json

It runs the operations SPEC.json lists and prints one JSON object with
the results.  Each workload is a closed loop: one client, one operation
in flight.  The loop runs whole passes over the operation list until
another pass would end after the time budget, and at least the number of
passes the spec asks for, so every run measures the same mix of inputs.
"""

import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

from loader import ROOT, load
from spans import Tracer, loglog_slope

# Layer name -> attribute of the ltlx package that the benchmark calls directly.
DIRECT = {
    "xmlio.parse": "parse",
    "xmlio.serialize": "serialize",
    "nodes.canonicalize": "canonicalize",
    "encoding.encode_core": "encode_core",
    "encoding.decode_core": "decode_core",
    "encoding.split_sentinel_text": "split_sentinel_text",
    "queryops.eval_path": "eval_path",
    "engine.transform_document": "transform_document",
    "rules.parse_rules": "parse_rules",
    "rules.parse_path_text": "parse_path_text",
}
# Calls made from inside the engine, wrapped on the names ltlx.engine imported.
ENGINE_CALLS = (
    ("node_to_term", "terms.node_to_term"),
    ("unify", "terms.unify"),
    ("apply_subst", "terms.apply_subst"),
    ("term_to_node", "terms.term_to_node"),
    ("eval_path", "queryops.eval_path"),
)
# Calls made from the CLI front end, wrapped on the names ltlx.cli imported.
CLI_CALLS = tuple((attr, layer) for layer, attr in DIRECT.items()) + (
    ("relations_from_facts", "relalg.relations_from_facts"),
    ("eval_expr", "relalg.eval_expr"),
    ("count_tokens", "metrics.count_tokens"),
)
LAYERS = tuple(DIRECT) + tuple(layer for _, layer in ENGINE_CALLS[:4]) + tuple(
    layer for _, layer in CLI_CALLS[len(DIRECT):]
)
SLOPES = ("engine.transform_document", "xmlio.parse", "queryops.eval_path", "encoding.encode_core")
LAZY = ("eval_path",)


class CliFailure(Exception):
    """A CLI call printed a Python traceback."""


def make_api(tracer=None):
    import ltlx

    fns = {attr: getattr(ltlx, attr) for attr in DIRECT.values()}
    eval_path = fns["eval_path"]
    fns["eval_path"] = lambda *args, **kwargs: list(eval_path(*args, **kwargs))
    if tracer is not None:
        fns = {attr: tracer.wrap(layer, fns[attr]) for layer, attr in DIRECT.items()}
    return SimpleNamespace(**fns)


def plain(value):
    return list(value) if isinstance(value, tuple) else value


class Workload:
    """Executes the operations of one spec with a given api."""

    def __init__(self, spec, loaded):
        self.rulesets = {}
        for name, path in spec["files"].items():
            value = loaded[path]
            if path.endswith(".ltl"):
                self.rulesets[name, "first"] = value
                self.rulesets[name, "all"] = value.with_options(solution_mode="all")
            else:
                self.paths = value
        self.env = dict(os.environ, PYTHONIOENCODING="utf-8")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
        )

    def execute(self, api, op):
        kind, data = op["kind"], op["data"]
        if kind == "transform":
            rs = self.rulesets[data["rules"], data.get("mode", "first")]
            result = api.transform_document(rs, api.parse(data["xml"]))
            return "".join(api.serialize(node) for node in result.nodes)
        if kind == "pipeline":
            doc = api.canonicalize(api.parse(data["xml"]))
            queries = [[plain(r) for r in api.eval_path(doc, path)] for path in self.paths]
            encoded = api.serialize(api.encode_core(doc))
            back = api.decode_core(api.split_sentinel_text(api.parse(encoded)))
            return {"queries": queries, "canonical": api.serialize(doc), "round_trip": api.serialize(back)}
        return self.cli_subprocess(data["argv"])

    def cli_subprocess(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "ltlx.cli", *argv],
            cwd=ROOT, env=self.env, capture_output=True, timeout=120,
        )
        stderr = proc.stderr.decode("utf-8", "replace")
        if "Traceback" in stderr:
            raise CliFailure(stderr.strip().splitlines()[-1])
        return {"stdout": proc.stdout.decode("utf-8", "replace"), "code": proc.returncode}

    @staticmethod
    def cli_inprocess(cli, argv):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, stdout=out, stderr=err)
        return {"stdout": out.getvalue(), "code": code}


def one_pass(ops, execute):
    """Run every op once; return [(seconds, output, error name or None), ...]."""
    results = []
    for op in ops:
        started = time.perf_counter()
        try:
            output, error = execute(op), None
        except Exception as exc:  # a failed operation is a result, not the end of the run
            output, error = None, f"{type(exc).__name__}: {exc}"[:200]
        results.append((time.perf_counter() - started, output, error))
    return results


def check(ops, results, failures):
    """Mark each result correct or not, noting the first few failures."""
    marks = []
    for op, (_, output, error) in zip(ops, results):
        ok = error is None and output == op["expected"]
        if not ok and len(failures) < 5:
            failures.append({"group": op["group"], "nodes": op["nodes"], "error": error or "output differs from the reference"})
        marks.append(ok)
    return marks


def timed_run(ops, execute, seconds, min_passes):
    """Whole passes until another would end after `seconds`; per-pass timings and marks."""
    passes, failures = [], []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        results = one_pass(ops, execute)
        passes.append({"seconds": time.perf_counter() - pass_start,
                       "latencies": [r[0] for r in results], "ok": check(ops, results, failures)})
        mean_pass = statistics.mean(p["seconds"] for p in passes)
        if len(passes) >= min_passes and time.perf_counter() - started + mean_pass > seconds:
            break
    return {"passes": passes, "ok": [m for p in passes for m in p["ok"]], "failures": failures}


def layer_metrics(tracer, ops, with_slopes):
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = tracer.calls[layer]
        metrics[f"{layer}.self_s"] = tracer.self_s[layer]
    unify_calls = tracer.calls["terms.unify"]
    metrics["terms.unify.hit_ratio"] = tracer.hits["terms.unify"] / unify_calls if unify_calls else 0.0
    for name in SLOPES:
        slope = 0.0
        if with_slopes:
            groups = {}
            for op, seconds in tracer.top_level_durations(name).items():
                groups.setdefault(ops[op]["group"], []).append((ops[op]["nodes"], seconds))
            # The steepest shape is reported: a quadratic path should not be averaged away.
            slope = max((loglog_slope(points) for points in groups.values()), default=0.0)
        metrics[f"{name}.slope"] = slope
    return metrics


def traced_run(spec, workload, api, tracer):
    """A warm-up pass, then each op once untraced and once traced, in turn.

    Alternating op by op keeps a change in the host's speed during the run
    from landing on one side of trace.overhead_ratio only.
    """
    ops, failures = spec["ops"], []
    patches = [("ltlx.engine", attr, layer) for attr, layer in ENGINE_CALLS]
    if spec["workload"] == "cli":
        import ltlx.cli as cli

        wall = one_pass(ops, lambda op: workload.execute(api, op))
        patches += [("ltlx.cli", attr, layer) for attr, layer in CLI_CALLS]

        def execute(op):
            return workload.cli_inprocess(cli, op["data"]["argv"])

        traced_execute = execute
    else:
        traced_api = make_api(tracer)
        load(spec["workload"], spec["files"].values(), traced_api)

        def execute(op):
            return workload.execute(api, op)

        def traced_execute(op):
            return workload.execute(traced_api, op)

    one_pass(ops, execute)  # warm-up, so that neither measured pass is the cold one
    plain_run, traced = [], []
    for index, op in enumerate(ops):
        plain_run += one_pass([op], execute)
        for module, attr, layer in patches:
            tracer.patch(module, attr, layer, lazy=attr in LAZY, count_hits=layer == "terms.unify")
        tracer.op_id = index
        try:
            traced += one_pass([op], traced_execute)
        finally:
            tracer.unpatch()
            tracer.op_id = -1
    if spec["workload"] == "cli":
        overhead_ms = statistics.median(1000 * (w[0] - p[0]) for w, p in zip(wall, plain_run))
        results = (wall, plain_run, traced)
    else:
        overhead_ms = 0.0
        results = (plain_run, traced)
    marks = [check(ops, r, failures) for r in results]
    for index, (a, b) in enumerate(zip(plain_run, traced)):
        if a[1:] != b[1:]:
            marks[-1][index] = False
            failures.append({"group": ops[index]["group"], "error": "traced output differs from untraced"})
    metrics = layer_metrics(tracer, ops, with_slopes=spec["workload"] != "cli")
    metrics["cli.process_overhead_ms"] = overhead_ms
    metrics["trace.overhead_ratio"] = sum(r[0] for r in plain_run) / sum(r[0] for r in traced)
    return {"ok": [m for pass_marks in marks for m in pass_marks], "failures": failures, "per_layer": metrics}


def run_probes(spec, workload, api):
    outcomes = []
    for probe in spec["probes"]:
        (_, output, error), = one_pass([probe], lambda op: workload.execute(api, op))
        outcomes.append({"id": probe["group"], "ok": error is None and output == probe["expected"],
                         "error": error})
    return outcomes


def main():
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    workload = Workload(spec, load(spec["workload"], spec["files"].values()))
    api = make_api()
    # The inputs and references live for the whole run; keep the collector
    # from scanning them again and again, so its cost is ltlx's own.
    gc.collect()
    gc.freeze()
    if spec["trace"]:
        tracer = Tracer()
        result = traced_run(spec, workload, api, tracer)
        tracer.write(spec["trace_out"])
    else:
        result = timed_run(spec["ops"], lambda op: workload.execute(api, op), spec["seconds"], spec["min_passes"])
        who = resource.RUSAGE_CHILDREN if spec["workload"] == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    result["probes"] = run_probes(spec, workload, api)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
