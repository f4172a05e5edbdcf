"""Benchmark of record for the SketchTree reproduction.

One command runs one workload against the system as shipped, checks
every output, and prints one JSON line with every metric named in
``BENCHMARK.json`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``)::

    python3 perfbench/run.py --workload corpus-dblp --seed 1 --seconds 5 --trace 0

Workloads, all in the paper's configuration (s1=50, s2=7, k=4, p=229,
Rabin mapping):

* ``corpus-dblp`` — a dblp-xml document through ``CorpusReader`` →
  ``StreamProcessor`` (micro-batches, checkpoints) → ``SketchTree``,
  top-k off, then a selectivity-bucketed mix of ordered, unordered,
  interval, SUM and XPath estimates.  Bushy, label-skewed records carry
  the most patterns per tree: enumerate, encode and the counter apply
  dominate.  Top-k, windows and HTTP are bypassed.
* ``window-treebank-topk`` — a PTB bracket file into a
  ``WindowedSketchTree`` with top-k (size 8, probability 1) that rotates
  buckets and refolds trackers many times, with a fixed number of window
  queries after every micro-batch.  Deep, narrow trees make per-value
  top-k work dominate; every window query re-sums the live buckets.
* ``serve-http`` — ``python -m repro.serve --shards 2 --k 4`` as a
  subprocess, driven by this single-threaded process over one
  persistent HTTP/1.1 connection (stock ``http.client``, closed loop):
  16-tree ``POST /ingest`` bodies back to back, ``POST /admin/drain``,
  then ``/estimate/*`` queries with ingest quiesced.  Corpus readers,
  top-k and windows are bypassed.

Process layout: ``inputs.py`` generates the inputs and the exact oracle
in a process of its own; ``worker.py`` (library workloads) or the server
(serve-http) is the process under measurement and receives only those
files.  Set-up time is measured several times per run, half before and
half after the passes, from process start to a constructed system
(library) or to ``/readyz`` answering 200 (server, where every pass's
boot is a sample too), and reported as the median.

A run does a fixed amount of work, set by the benchmark and the same on
every commit however fast the system is; ``--seconds`` is recorded but
does not size the run (about 20 s of passes for the library workloads,
and for serve-http 1000 queries at its keep-alive stall, about 50 s).
``inputs.py`` writes one stream per draw (``stats.schedule``):

* library workloads: the first few draws are timed, three times each,
  in rounds, so that the repeats of a stream lie seconds apart.  Every
  pass runs over a fresh synopsis or window.  Throughput and query
  latency are the best of the repeats per micro-batch and per query
  (``stats.best_of``): a shared host's other tenants slow it by up to
  1.7x for stretches from 0.05 s to minutes, and medians over passes
  moved with the share of such stretches in a run.  ``trees_per_s`` is the
  timed streams' trees over the sum of their best batch times, and
  ``query_p50_ms``/``query_p99_ms`` are percentiles of the best latency
  of every query issued (at least 1000).  The other draws are ingested
  once each, between the rounds, to widen the sample
  ``estimate_rel_error`` averages.
* serve-http: one pass per draw, each on a fresh server; throughput is
  the draws' trees over their ingest seconds, and query percentiles are
  pooled over the 1000 queries of the run: the transport stall, not the
  host, sets them.

``estimate_rel_error`` is the mean over one pass per draw.

A run record (seed, configuration, workload parameters, host
fingerprint, per-pass numbers, gates, every metric) is written to
``perfbench/results/``.  The exit code is 0 only when every correctness
gate passed and no operation failed.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import math
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

from stats import (
    best_of_passes, pass_seed, percentile, pooled_rate, rel_error_gate, schedule, vm_hwm_mb,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("corpus-dblp", "window-treebank-topk", "serve-http")
clock = time.perf_counter

#: Generous ceilings for child processes; a run must end within 180 s.
INPUTS_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
BOOT_TIMEOUT_S = 30


def child_env() -> dict:
    """Environment of every child: the checkout's ``src`` and this directory."""
    path = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    # One string-hash seed for every process: set iteration order (e.g.
    # the arrangements ``estimate_unordered`` sums over) is then the
    # same in the oracle, the measured process and the server, so their
    # float answers can be compared exactly.
    return dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")


def spec_metrics() -> tuple[dict, dict]:
    """``name -> unit`` for the end-to-end and the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def host_fingerprint() -> dict:
    model = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


# ----------------------------------------------------------------------
# Library workloads: set-up probes, then one measured worker process
# ----------------------------------------------------------------------
def library_setup_s(inputs: Path) -> float:
    """Seconds from starting a worker to its system being constructed."""
    start = clock()
    probe = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), "--inputs", str(inputs), "--setup-only"],
        stdout=subprocess.PIPE, text=True, env=child_env(),
    )
    try:
        line = probe.stdout.readline()
        elapsed = clock() - start
    finally:
        probe.communicate(timeout=BOOT_TIMEOUT_S)
    if line.strip() != "ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {probe.returncode}): {line!r}")
    return elapsed


def run_library(manifest: dict, inputs: Path, trace: bool) -> dict:
    half = manifest["setup_repeats"] // 2
    setups = [library_setup_s(inputs) for _ in range(half)]
    worker = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--inputs", str(inputs),
         "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True, env=child_env(), timeout=WORKER_TIMEOUT_S,
    )
    if worker.returncode != 0:
        raise RuntimeError(f"worker exited {worker.returncode}")
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    # The other half of the set-up probes after the passes: the median
    # then samples both ends of the run.
    setups += [library_setup_s(inputs) for _ in range(manifest["setup_repeats"] - half)]
    result["setup_s"] = setups
    timing = [p for p in result["passes"] if p["draw"] < manifest["timing_draws"]]
    untraced, result["latency_ms"] = best_of_passes([p for p in timing if not p["traced"]])
    result["trees_per_s"] = untraced
    layers = {}
    traced = [p for p in timing if p["traced"]]
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = median([p["layers"][name] for p in traced])
        layers.update(result["query_layers"])
        layers["obs.tracing_overhead"] = best_of_passes(traced)[0] / untraced
    result["layers"] = layers
    result["latency_passes"] = [p.pop("latency_ms") for p in result["passes"]]
    return result


# ----------------------------------------------------------------------
# serve-http: this process is the client
# ----------------------------------------------------------------------
class Client:
    """One persistent HTTP/1.1 connection, stock ``http.client``."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self.attempted = 0
        self.failed = 0

    def call(self, method: str, path: str, body: bytes | None = None):
        """``(status, payload bytes, seconds)``; failures are counted."""
        self.attempted += 1
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = clock()
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.failed += 1
            print(f"{method} {path} failed: {exc!r}", file=sys.stderr)
            self.conn.close()
            return None, b"", clock() - start
        elapsed = clock() - start
        if not 200 <= response.status < 300:
            self.failed += 1
            print(f"{method} {path} -> {response.status}: {payload[:200]!r}", file=sys.stderr)
        return response.status, payload, elapsed

    def close(self) -> None:
        self.conn.close()


def boot_server(seed: int, config: dict, shards: int):
    """Start ``python -m repro.serve``; returns (process, host, port, set-up s)."""
    start = clock()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--shards", str(shards), "--k", str(config["max_pattern_edges"]),
         "--s1", str(config["s1"]), "--s2", str(config["s2"]),
         "--streams", str(config["n_virtual_streams"]), "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=str(ROOT),
    )
    line = server.stdout.readline()
    match = re.search(r"serving on http://([\d.]+):(\d+)", line)
    if not match:
        stop_server(server)
        raise RuntimeError(f"server printed no address line: {line!r}")
    host, port = match.group(1), int(match.group(2))
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while True:
        probe = http.client.HTTPConnection(host, port, timeout=5)
        try:
            probe.request("GET", "/readyz")
            response = probe.getresponse()
            response.read()
            if response.status == 200:
                return server, host, port, clock() - start
        except (OSError, http.client.HTTPException):
            pass  # not listening yet
        finally:
            probe.close()
        if time.monotonic() > deadline:
            stop_server(server)
            raise RuntimeError("server never became ready")
        time.sleep(0.005)


def stop_server(server: subprocess.Popen) -> str:
    """SIGTERM (graceful drain), then wait; returns the server's stdout."""
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
    try:
        out, _ = server.communicate(timeout=BOOT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        server.kill()
        out, _ = server.communicate()
    return out or ""


def scrape(client: Client) -> dict[str, float]:
    """``/metrics`` samples by name (histograms as ``_sum``/``_count``)."""
    status, payload, _ = client.call("GET", "/metrics")
    samples: dict[str, float] = {}
    if status != 200:
        return samples
    for line in payload.decode().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    return samples


def queue_depth(client: Client) -> int:
    """Ingest batches waiting in the shard queues (``serve_queue_depth``).

    Read from ``GET /stats``: ``GET /metrics`` during ingest can answer
    500 ("dictionary changed size during iteration") when a pull gauge
    iterates shard state a drain thread is growing.
    """
    status, payload, _ = client.call("GET", "/stats")
    if status != 200:
        return 0
    return sum(shard["pending"] for shard in json.loads(payload)["shards"])


def serve_queries(stream: dict) -> list[tuple[str, str, bytes]]:
    """``(kind, path, pre-serialised body)`` per query of a stream's mix."""
    mix = []
    for query in stream["queries"]:
        key = "queries" if query["kind"] == "sum" else "query"
        body = json.dumps({key: query["query"]}).encode()
        mix.append((query["kind"], f"/estimate/{query['kind']}", body))
    return mix


def serve_pass(manifest: dict, stream: dict, draw: int, first_query: int,
               n_queries: int, traced: bool, gates: dict) -> dict:
    """Boot a fresh server, ingest, drain, query; returns the pass record.

    The timed ingest is the same in both kinds of pass.  A traced pass
    additionally scrapes ``/metrics`` after the drain, samples ``GET
    /healthz`` between queries, and, once everything else is measured,
    ingests the stream a second time, untimed, to sample the queue depth.
    """
    bodies, mix = stream["bodies"], stream["mix"]
    server, host, port, setup_s = boot_server(
        pass_seed(manifest["seed"], draw), manifest["config"], manifest["serve_shards"]
    )
    client = Client(host, port)
    record: dict = {"boot_s": setup_s, "traced": traced, "latency_ms": {},
                    "latency_sequence": [], "answers": {}, "ingest_post_ms": [],
                    "healthz_ms": []}
    try:
        gc.collect()
        start = clock()
        for body in bodies:
            status, _, elapsed = client.call("POST", "/ingest", body)
            record["ingest_post_ms"].append(elapsed * 1000.0)
        status, payload, drain_s = client.call("POST", "/admin/drain")
        seconds = clock() - start
        drained = json.loads(payload) if status == 200 else {}
        record.update({"seconds": seconds, "trees_per_s": stream["n_trees"] / seconds,
                       "n_trees": stream["n_trees"], "drained_trees": drained.get("n_trees"),
                       "drain_ms": drain_s * 1000.0})
        if traced:
            metrics = scrape(client)
            for stage in ("enumerate", "encode", "apply"):
                record[f"{stage}_s"] = metrics.get(f"repro_ingest_{stage}_seconds_sum", 0.0)
        # Warm-up: each estimate kind once, untimed.
        for kind in sorted({kind for kind, _, _ in mix}):
            _, path, body = next(q for q in mix if q[0] == kind)
            client.call("POST", path, body)
        for issued in range(first_query, first_query + n_queries):
            position = issued % len(mix)
            kind, path, body = mix[position]
            status, payload, elapsed = client.call("POST", path, body)
            if status == 200:
                record["latency_ms"].setdefault(kind, []).append(elapsed * 1000.0)
                record["latency_sequence"].append(elapsed * 1000.0)
                record["answers"].setdefault(position, json.loads(payload)["estimate"])
            if traced and issued % 5 == 0:
                _, _, elapsed = client.call("GET", "/healthz")
                record["healthz_ms"].append(elapsed * 1000.0)
        if "admin_checks" in stream and "admin_bit_identical" not in gates:
            admin_gate(client, stream, gates)
        record["rss_mb"] = vm_hwm_mb(server.pid)
        if traced:
            depths = []
            for body in bodies:
                client.call("POST", "/ingest", body)
                depths.append(queue_depth(client))
            client.call("POST", "/admin/drain")
            record["queue_depth_peak"] = max(depths)
    finally:
        record["attempted"], record["failed"] = client.attempted, client.failed
        client.close()
        out = stop_server(server)
    record["clean_stop"] = server.returncode == 0 and "stopped cleanly" in out
    return record


def admin_gate(client: Client, stream: dict, gates: dict) -> None:
    """``/admin/estimate/*`` must equal the in-process single synopsis."""
    mismatches = []
    for check in stream["admin_checks"]:
        key = "queries" if check["kind"] == "sum" else "query"
        body = json.dumps({key: check["query"]}).encode()
        status, payload, _ = client.call("POST", f"/admin/estimate/{check['kind']}", body)
        got = json.loads(payload)["estimate"] if status == 200 else None
        if got != check["expected"]:
            mismatches.append({"kind": check["kind"], "got": got, "expected": check["expected"]})
    gates["admin_bit_identical"] = [
        not mismatches,
        f"{len(stream['admin_checks'])} admin estimates vs single SketchTree; "
        f"mismatches: {mismatches[:3]}",
    ]


def serve_setup_s(manifest: dict) -> float:
    """Seconds from starting a server to ``/readyz`` answering 200.

    The probe served nothing, so it is killed rather than drained.
    """
    server, _, _, setup_s = boot_server(
        pass_seed(manifest["seed"], 0), manifest["config"], manifest["serve_shards"]
    )
    server.kill()
    server.communicate()
    return setup_s


def run_serve(manifest: dict, inputs: Path, trace: bool) -> dict:
    """One pass per stream (with ``--trace 1`` an
    untraced and a traced pass per stream), each timing the same number
    of queries.
    """
    half = manifest["setup_repeats"] // 2
    # Every pass boots a server too; its boot is a set-up sample as well.
    setups = [serve_setup_s(manifest) for _ in range(half)]
    streams = manifest["streams"]
    for stream in streams:
        stream["bodies"] = [b.encode() for b in json.loads(
            (inputs / stream["corpus"]).read_text(encoding="utf-8"))]
        stream["mix"] = serve_queries(stream)
    # The run times the sample floor, and its passes over a stream
    # answer that stream's whole mix (the error oracle).
    draws = len(streams)
    plan = schedule(draws, draws, manifest["repeats"], trace)
    per_pass = max(-(-manifest["min_query_samples"] // len(plan)),
                   -(-max(len(s["mix"]) for s in streams) // (len(plan) // draws)))
    gates: dict = {}
    passes: list[dict] = []
    answers: dict[int, dict[int, float]] = {draw: {} for draw in range(draws)}
    turns = dict.fromkeys(range(draws), 0)
    for draw, traced in plan:
        record = serve_pass(manifest, streams[draw], draw, turns[draw] * per_pass, per_pass,
                            traced, gates)
        turns[draw] += 1
        answers[draw].update(record["answers"])
        record["ok"] = record["drained_trees"] == streams[draw]["n_trees"]
        passes.append(record)
    setups += [serve_setup_s(manifest) for _ in range(manifest["setup_repeats"] - half)]
    setups += [p["boot_s"] for p in passes]
    exact = [[q["exact"] for q in s["queries"]] for s in streams]
    gates["pass_tree_counts"] = [
        all(p["ok"] for p in passes), "every drain reported its stream's tree count",
    ]
    gates["clean_shutdown"] = [all(p["clean_stop"] for p in passes),
                               "every server stopped cleanly on SIGTERM"]
    latency: dict[str, list[float]] = {}
    for p in passes:
        for kind, samples in p["latency_ms"].items():
            latency.setdefault(kind, []).extend(samples)
    untraced = pooled_rate([p for p in passes if not p["traced"]])
    result = {
        "passes": [{k: v for k, v in p.items()
                    if k not in ("latency_ms", "latency_sequence", "answers")} for p in passes],
        "setup_s": setups,
        "trees_per_s": untraced,
        "latency_passes": [p["latency_sequence"] for p in passes],
        # Every sample, pooled: the transport stall, not the host, sets
        # these latencies.
        "latency_ms": [s for p in passes for s in p["latency_sequence"]],
        "estimates": [[answers[j].get(i, math.nan) for i in range(len(streams[j]["mix"]))]
                      for j in range(draws)],
        "exact": exact,
        "rss_mb": median([p["rss_mb"] for p in passes]),
        "gates": gates,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "layers": {},
    }
    traced = [p for p in passes if p["traced"]]
    if traced:
        layers = {
            "serve.healthz_ms": percentile([s for p in traced for s in p["healthz_ms"]], 0.5),
            "serve.ingest_post_ms": percentile([s for p in traced for s in p["ingest_post_ms"]], 0.5),
            "serve.drain_ms": median([p["drain_ms"] for p in traced]),
            "serve.queue_depth_peak": median([p["queue_depth_peak"] for p in traced]),
            # The server records its metrics in every pass and both kinds
            # of pass time the same ingest, so this ratio is 1 up to noise.
            "obs.tracing_overhead": pooled_rate(traced) / untraced,
        }
        for stage in ("enumerate", "encode", "apply"):
            layers[f"serve.{stage}_s"] = median([p[f"{stage}_s"] for p in traced])
        for kind, samples in latency.items():
            layers[f"serve.estimate_{kind}_ms"] = percentile(samples, 0.5)
        result["layers"] = layers
    return result


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def summarize(manifest: dict, result: dict, trace: bool) -> tuple[dict, bool, int, int]:
    """The metrics of this run and whether every gate passed."""
    gates = result["gates"]
    estimates = [e for draw in result["estimates"] for e in draw]
    exact = [x for draw in result["exact"] for x in draw]
    ok, mean_error = rel_error_gate(estimates, exact)
    gates["estimate_rel_error"] = [ok, f"mean relative error {mean_error:.4f} over "
                                       f"{len(exact)} answers from "
                                       f"{len(result['exact'])} draws"]
    samples = result["latency_ms"]
    gates["query_samples"] = [
        len(samples) >= manifest["min_query_samples"],
        f"{len(samples)} query samples, {manifest['min_query_samples']} required",
    ]
    passed = all(ok for ok, _ in gates.values())
    failed = result["failed"] + sum(1 for ok, _ in gates.values() if not ok)
    attempted = result["attempted"] + len(gates)
    if trace:
        metrics = dict(result["layers"])
    else:
        metrics = {
            "setup_s": median(result["setup_s"]),
            "trees_per_s": result["trees_per_s"],
            "query_p50_ms": percentile(samples, 0.5),
            "query_p99_ms": percentile(samples, 0.99),
            "peak_rss_mb": result["rss_mb"],
            "estimate_rel_error": mean_error,
        }
    result["error_ratio"] = failed / attempted
    result["n_query_samples"] = len(samples)
    return metrics, passed and failed == 0, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="recorded only: a run's work is fixed, the same on every commit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: every code path at toy size (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no system under test: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    end_to_end, per_layer = spec_metrics()
    workdir = BENCH / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "inputs.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--out", str(workdir)],
            check=True, env=child_env(), timeout=INPUTS_TIMEOUT_S,
        )
        manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
        runner = run_serve if args.workload == "serve-http" else run_library
        result = runner(manifest, workdir, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measured, correct, attempted, failed = summarize(manifest, result, bool(args.trace))
    units = per_layer if args.trace else end_to_end
    # A layer the workload bypasses did no work: it reports 0.
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "host": host_fingerprint(),
        "config": manifest["config"], "draw_seeds": manifest["draw_seeds"],
        "parameters": {k: v for k, v in manifest.items()
                       if k not in ("streams", "config", "draw_seeds")},
        "streams": [{"corpus": s["corpus"], "n_trees": s["n_trees"], "n_values": s["n_values"],
                     "n_queries": len(s["queries"])} for s in manifest["streams"]],
        "correct": correct, "attempted": attempted, "failed": failed,
        "error_ratio": result["error_ratio"], "n_query_samples": result["n_query_samples"],
        "gates": result["gates"], "passes": result["passes"],
        "setup_s_samples": result["setup_s"],
        "latency_ms_passes": [[round(x, 5) for x in block] for block in result["latency_passes"]],
        "latency_ms": [round(x, 5) for x in result["latency_ms"]],
        "metrics": metrics,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    for name, (ok, detail) in result["gates"].items():
        if not ok:
            print(f"GATE FAILED {name}: {detail}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
