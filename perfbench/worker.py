"""The measured process of the library workloads (corpus-dblp, window-treebank-topk).

It receives only the files ``inputs.py`` wrote, so its set-up time and
peak RSS describe the system, not the generators or the exact oracle.

* ``--setup-only``: import the system, construct the reader and the
  synopsis (or window), print ``ready`` and exit.  The orchestrator
  times this from process start, several times per run.
* otherwise: an untimed warm-up, then the passes ``stats.schedule``
  lists, each over a fresh synopsis or window, each recording the
  seconds of every micro-batch and the latency of every query it
  issues; then the correctness gates, outside every timed region, and
  one JSON result line.

With ``--trace 1`` every timing pass is followed by a traced one over
the same stream.  A traced pass
attaches a live :class:`~repro.obs.MetricsRegistry` and, from this
file, wraps the reader iterator, ``PatternEncoder.encode_batch``,
``PatternTableMemo.tables_of`` and ``TopKTracker.process``; the
per-layer numbers come from traced passes only, and the ratio of the
two kinds of pass is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import tempfile
import time
from contextlib import ExitStack, nullcontext
from itertools import islice
from pathlib import Path

import numpy as np

from repro import SketchTree, SketchTreeConfig
from repro.core.encoding import PatternEncoder
from repro.core.snapshot import CheckpointManager
from repro.core.topk import TopKTracker
from repro.core.window import WindowedSketchTree
from repro.corpora import CorpusReader
from repro.enumtree.enumerate import PatternTableMemo, iter_pattern_multiset
from repro.obs import MetricsRegistry, use_registry
from repro.query.pattern import arrangements, pattern_from_sexpr
from repro.stream import StreamProcessor
from stats import (
    host_speed_ms, pass_seed, percentile, schedule, vm_hwm_mb,
)

clock = time.perf_counter
MIB = 1024.0 * 1024.0

# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def bind_queries(target, queries: list[dict]) -> list[tuple[str, object, object]]:
    """``(kind, bound estimator, argument)`` per query of the mix.

    Patterns are parsed here, once, so a timed call measures the
    estimator and not the s-expression parser.
    """
    bound = []
    for query in queries:
        kind = query["kind"]
        if kind == "ordered":
            bound.append((kind, target.estimate_ordered, pattern_from_sexpr(query["query"])))
        elif kind == "unordered":
            bound.append((kind, target.estimate_unordered, pattern_from_sexpr(query["query"])))
        elif kind == "interval":
            bound.append((kind, target.estimate_ordered_interval, pattern_from_sexpr(query["query"])))
        elif kind == "xpath":
            bound.append((kind, target.estimate_xpath, query["query"]))
        elif kind == "sum":
            bound.append((kind, target.estimate_sum, [pattern_from_sexpr(q) for q in query["query"]]))
        else:
            raise ValueError(f"unknown query kind {kind!r}")
    return bound


def point(answer) -> float:
    """The point estimate of an answer (an ``Interval`` carries one)."""
    return float(getattr(answer, "estimate", answer))


class Queries:
    """Latency samples, per kind and in order, plus the failure count."""

    def __init__(self) -> None:
        self.latency_ms: dict[str, list[float]] = {}
        self.sequence: list[float] = []  # every sample, in the order taken
        self.attempted = 0
        self.failed = 0

    def timed(self, kind: str, call, argument):
        self.attempted += 1
        start = clock()
        try:
            answer = call(argument)
        except Exception as exc:  # noqa: BLE001 — a failed query is counted, not fatal
            self.failed += 1
            self.sequence.append(math.nan)  # keeps repeats aligned
            print(f"query {kind} failed: {exc!r}", file=sys.stderr)
            return None
        elapsed_ms = (clock() - start) * 1000.0
        self.latency_ms.setdefault(kind, []).append(elapsed_ms)
        self.sequence.append(elapsed_ms)
        return answer


def answers(bound) -> list[float]:
    """One untimed evaluation of the whole mix (for the error oracle)."""
    return [point(call(argument)) for _, call, argument in bound]


# ----------------------------------------------------------------------
# Traced-pass instruments (installed from this file, traced passes only)
# ----------------------------------------------------------------------
def timed_iter(iterable, totals: dict):
    """Yield from ``iterable``, adding the time inside ``next()`` to totals."""
    iterator = iter(iterable)
    while True:
        start = clock()
        try:
            item = next(iterator)
        except StopIteration:
            totals["parse_s"] += clock() - start
            return
        totals["parse_s"] += clock() - start
        yield item


class MethodProbe:
    """Wraps ``cls.name`` for the duration of a ``with`` block.

    Accumulates the time spent inside the method, its call count, and
    how much each instance counter named in ``deltas`` grew during the
    calls — so counters of short-lived objects (a window's expired
    buckets) are still summed.
    """

    def __init__(self, cls: type, name: str, deltas: tuple[str, ...] = ()) -> None:
        self.cls, self.name, self.deltas = cls, name, deltas
        self.seconds = 0.0
        self.calls = 0
        self.grown = dict.fromkeys(deltas, 0)
        self._original = getattr(cls, name)

    def __enter__(self) -> "MethodProbe":
        original, probe = self._original, self

        def wrapper(instance, *args, **kwargs):
            before = [getattr(instance, attr) for attr in probe.deltas]
            start = clock()
            try:
                return original(instance, *args, **kwargs)
            finally:
                probe.seconds += clock() - start
                probe.calls += 1
                for attr, value in zip(probe.deltas, before):
                    probe.grown[attr] += getattr(instance, attr) - value

        setattr(self.cls, self.name, wrapper)
        return self

    def __exit__(self, *exc_info: object) -> None:
        setattr(self.cls, self.name, self._original)


class LayerProbes:
    """The probes every traced ingest pass installs."""

    def __init__(self) -> None:
        self.encoder = MethodProbe(PatternEncoder, "encode_batch", ("cache_hits", "cache_misses"))
        self.memo = MethodProbe(PatternTableMemo, "tables_of", ("hits", "misses"))
        self.topk = MethodProbe(TopKTracker, "process", ("n_evictions", "n_rearrivals"))
        self._stack = ExitStack()

    def __enter__(self) -> "LayerProbes":
        for probe in (self.encoder, self.memo, self.topk):
            self._stack.enter_context(probe)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stack.close()

    def layers(self) -> dict[str, float]:
        hits, misses = self.encoder.grown["cache_hits"], self.encoder.grown["cache_misses"]
        memo_hits, memo_misses = self.memo.grown["hits"], self.memo.grown["misses"]
        return {
            "enumtree.memo_hit_ratio": memo_hits / max(1, memo_hits + memo_misses),
            "encoding.lru_hit_ratio": hits / max(1, hits + misses),
            "encoding.lru_misses": misses,
            "topk.process_s": self.topk.seconds,
            "topk.process_calls": self.topk.calls,
            "topk.evictions": self.topk.grown["n_evictions"],
            "topk.rearrivals": self.topk.grown["n_rearrivals"],
        }


def registry_layers(registry: MetricsRegistry) -> dict[str, float]:
    """Stage spans and counters the program already exports."""
    def total(name: str) -> float:
        return float(registry.histogram(name).total)

    def counter(name: str) -> float:
        return float(registry.counter(name).value)

    return {
        "enumtree.enumerate_s": total("ingest_enumerate_seconds"),
        "encoding.encode_s": total("ingest_encode_seconds"),
        "sketch.apply_s": total("ingest_apply_seconds"),
        "sketch.values_applied": counter("ingest_values_total"),
        "snapshot.save_s": total("snapshot_save_seconds"),
        "snapshot.bytes": counter("snapshot_save_bytes_total"),
    }


def chunk_times(trees, size: int, times: list[float]):
    """Yield ``trees``; append to ``times`` the seconds each run of
    ``size`` trees took, from pulling its first tree to pulling the next
    run's (reading, the micro-batch and any checkpoint in between)."""
    start = clock()
    for count, tree in enumerate(trees, 1):
        yield tree
        if count % size == 0:
            now = clock()
            times.append(now - start)
            start = now


# ----------------------------------------------------------------------
# corpus-dblp
# ----------------------------------------------------------------------
def dblp_setup(manifest: dict, corpus: Path, workdir: Path, seed: int,
               registry: MetricsRegistry | None = None):
    config = SketchTreeConfig(**manifest["config"], seed=seed)
    synopsis = SketchTree(config, metrics=registry)
    checkpoints = CheckpointManager(workdir, metrics=registry)
    processor = StreamProcessor(
        [synopsis], batch_trees=manifest["dblp_batch_trees"],
        snapshot_every=manifest["dblp_snapshot_every"], checkpoints=checkpoints,
        metrics=registry,
    )
    reader = CorpusReader(str(corpus), format="dblp-xml")
    reader.files()
    return synopsis, checkpoints, processor, reader


def dblp_pass(manifest: dict, corpus: Path, workdir: Path, seed: int,
              traced: bool) -> tuple[dict, SketchTree, CheckpointManager]:
    """One timed pass: dblp-xml reader → StreamProcessor → SketchTree."""
    registry = MetricsRegistry() if traced else None
    synopsis, checkpoints, processor, reader = dblp_setup(
        manifest, corpus, workdir, seed, registry
    )
    totals = {"parse_s": 0.0}
    batch_s: list[float] = []
    trees = chunk_times(timed_iter(reader, totals) if traced else reader,
                        manifest["dblp_batch_trees"], batch_s)
    probes = LayerProbes()
    gc.collect()
    with probes if traced else nullcontext():
        start = clock()
        processor.run(trees)
        seconds = clock() - start
    batch_s.append(seconds - sum(batch_s))  # the last, partial batch and the flush
    record = {"seconds": seconds, "trees_per_s": synopsis.n_trees / seconds,
              "n_trees": synopsis.n_trees, "n_values": synopsis.n_values,
              "traced": traced, "batch_s": batch_s}
    if traced:
        layers = registry_layers(registry)
        layers.update(probes.layers())
        layers["corpora.parse_s"] = totals["parse_s"]
        layers["enumtree.patterns_per_tree"] = synopsis.n_values / synopsis.n_trees
        layers["sketch.allocated_mb"] = synopsis.memory_report().allocated_total / MIB
        record["layers"] = layers
    return record, synopsis, checkpoints


def counters_of(synopsis: SketchTree) -> dict[int, np.ndarray]:
    """Allocated virtual streams' counter matrices by residue."""
    return {residue: matrix.counters for residue, matrix in synopsis.streams.iter_sketches()}


def counters_identical(a: dict[int, np.ndarray], b: dict[int, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[r], b[r]) for r in a)


def legacy_ingest(synopsis: SketchTree, trees: list) -> None:
    """The per-value reference loop: encode, route, update one value at a time."""
    k = synopsis.config.max_pattern_edges
    encoder, streams = synopsis.encoder, synopsis.streams
    for tree in trees:
        for pattern in iter_pattern_multiset(tree, k):
            value = encoder.encode(pattern)
            streams.sketch(streams.residue(value)).update(value)


def dblp_gates(manifest: dict, stream: dict, corpus: Path, seed: int,
               checkpoints: CheckpointManager) -> dict[str, list]:
    """Correctness gates on the shipped path, outside every timed region."""
    config = SketchTreeConfig(**manifest["config"], seed=seed)
    prefix = list(islice(CorpusReader(str(corpus), format="dblp-xml"),
                         manifest["dblp_prefix_trees"]))
    shipped = SketchTree(config)
    StreamProcessor([shipped], batch_trees=manifest["dblp_batch_trees"]).run(prefix)
    reference = SketchTree(config)
    legacy_ingest(reference, prefix)
    every = manifest["dblp_snapshot_every"]
    restored = checkpoints.load_latest(expected_config=config)
    expected_position = stream["n_trees"] // every * every
    return {
        "prefix_bit_identical": [
            counters_identical(counters_of(shipped), counters_of(reference)),
            f"{len(prefix)} trees, shipped path vs per-value loop",
        ],
        "checkpoint_position": [
            restored is not None and restored.n_trees == expected_position,
            f"latest checkpoint at {None if restored is None else restored.n_trees}, "
            f"expected {expected_position}",
        ],
    }


# ----------------------------------------------------------------------
# window-treebank-topk
# ----------------------------------------------------------------------
def batches(trees, size: int):
    """Consecutive lists of ``size`` trees (the last one may be shorter)."""
    batch = []
    for tree in trees:
        batch.append(tree)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


def window_setup(manifest: dict, corpus: Path, seed: int, topk: bool = True):
    record = manifest["config"] if topk else dict(manifest["config"], topk_size=0)
    window = WindowedSketchTree(
        SketchTreeConfig(**record, seed=seed), window_trees=manifest["window_trees"],
        bucket_trees=manifest["bucket_trees"],
    )
    reader = CorpusReader(str(corpus), format="ptb")
    reader.files()
    return window, reader


def window_pass(manifest: dict, stream: dict, corpus: Path, seed: int, traced: bool,
                recorder: Queries) -> tuple[dict, WindowedSketchTree]:
    """One timed pass: ptb reader → micro-batched window updates, with a
    fixed number of window queries after every micro-batch.

    Ingest time (reader plus ``update_batch``) and query latency are
    timed separately; writes and reads interleave in a fixed order.  The
    answers to the queries the stream's oracle scores are kept in
    ``record["estimates"]``.
    """
    scored = {issued: position for position, (issued, _) in enumerate(stream["scored"])}
    estimates = [float("nan")] * len(scored)
    registry = MetricsRegistry() if traced else None
    with use_registry(registry):
        window, reader = window_setup(manifest, corpus, seed)
        if traced:
            window.set_metrics(registry)
        mix = bind_queries(window, stream["queries"])
        per_batch = manifest["window_queries_per_batch"]
        probes = LayerProbes()
        parse_s = update_s = 0.0
        batch_s: list[float] = []
        issued = 0
        gc.collect()
        with probes if traced else nullcontext():
            start = clock()
            for batch in batches(reader, manifest["window_batch_trees"]):
                parsed = clock()
                parse_s += parsed - start
                window.update_batch(batch)
                updated = clock()
                update_s += updated - parsed
                batch_s.append(updated - start)
                for _ in range(per_batch):
                    kind, call, argument = mix[issued % len(mix)]
                    answer = recorder.timed(kind, call, argument)
                    if issued in scored and answer is not None:
                        estimates[scored[issued]] = point(answer)
                    issued += 1
                start = clock()
            parse_s += clock() - start
            batch_s[-1] += clock() - start  # the reader's end of file
    seconds = parse_s + update_s
    record = {"seconds": seconds, "trees_per_s": window.n_trees_seen / seconds,
              "n_trees": window.n_trees_seen, "traced": traced, "estimates": estimates,
              "batch_s": batch_s}
    if traced:
        layers = registry_layers(registry)
        layers.update(probes.layers())
        n_values = layers["sketch.values_applied"]
        layers.update({
            "corpora.parse_s": parse_s,
            "enumtree.patterns_per_tree": n_values / window.n_trees_seen,
            "sketch.allocated_mb": window.memory_report().allocated_total / MIB,
            "window.update_s": update_s,
            "window.refolds": window.n_refolds,
            "window.refold_candidates": window.n_refold_candidates,
            "window.live_buckets": window.n_live_buckets,
        })
        record["layers"] = layers
    return record, window


def merged_counters(window: WindowedSketchTree, unfold: bool) -> dict[int, np.ndarray]:
    merged = window.merged()
    if unfold:
        for _, tracker in list(merged.streams.iter_trackers()):
            tracker.unfold()
    return counters_of(merged)


def window_gates(manifest: dict, stream: dict, corpus: Path, seed: int,
                 window: WindowedSketchTree) -> dict[str, list]:
    """The fold/unfold invariant and the window's coverage."""
    reference, reader = window_setup(manifest, corpus, seed, topk=False)
    reference.ingest(reader, batch_trees=manifest["window_batch_trees"])
    expected_cover = stream["n_trees"] - stream["window_first_tree"]
    return {
        "unfold_bit_identical": [
            counters_identical(merged_counters(window, unfold=True),
                               merged_counters(reference, unfold=False)),
            "unfolded top-k window vs topk_size=0 window over the same trees",
        ],
        "window_coverage": [
            window.window_size_actual == expected_cover,
            f"window covers {window.window_size_actual} trees, oracle {expected_cover}",
        ],
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(manifest: dict, inputs: Path, trace: bool) -> dict:
    """The timed passes (``stats.schedule``), then the gates."""
    workload = manifest["workload"]
    streams = manifest["streams"]
    recorder = Queries()
    passes: list[dict] = []
    estimates: dict[int, list[float]] = {}
    scratch = Path(tempfile.mkdtemp(prefix="ckpt-", dir=inputs))
    draws = len(streams)
    # Warm-up, untimed: a few micro-batches and every query kind once on
    # a throwaway synopsis or window.
    if workload == "corpus-dblp":
        warm, _, processor, reader = dblp_setup(
            manifest, inputs / streams[0]["corpus"], scratch / "warm-up", manifest["seed"])
        processor.run(islice(iter(reader), 2 * manifest["dblp_batch_trees"]))
    else:
        warm, reader = window_setup(manifest, inputs / streams[0]["corpus"], manifest["seed"])
        warm.update_batch(list(islice(iter(reader), manifest["window_batch_trees"])))
    answers(bind_queries(warm, streams[0]["queries"]))
    started = clock()
    plan = schedule(draws, manifest["timing_draws"], manifest["repeats"], trace)
    del warm, reader
    for index, (draw_index, traced) in enumerate(plan):
        # One synopsis alive at a time: the peak RSS is that of one pass.
        last = synopsis = checkpoints = window = mix = None
        gc.collect()
        stream = streams[draw_index]
        pass_started = clock() - started
        samples_start = len(recorder.sequence)
        speed_ms = host_speed_ms()
        corpus, seed = inputs / stream["corpus"], pass_seed(manifest["seed"], draw_index)
        if workload == "corpus-dblp":
            record, synopsis, checkpoints = dblp_pass(
                manifest, corpus, scratch / f"pass{index}", seed, traced
            )
            mix = bind_queries(synopsis, stream["queries"])
            # Untimed: every pass's warm-up round, and the oracle's answers.
            estimates.setdefault(draw_index, answers(mix))
            gc.collect()
            for kind, call, argument in mix:
                recorder.timed(kind, call, argument)
            last = (stream, corpus, seed, synopsis, checkpoints)
        else:
            record, window = window_pass(manifest, stream, corpus, seed, traced, recorder)
            estimates.setdefault(draw_index, record.pop("estimates"))
            last = (stream, corpus, seed, window, None)
        record["draw"], record["stream"] = draw_index, stream["corpus"]
        record["started_s"] = pass_started
        record["host_speed_ms"] = speed_ms
        record["latency_ms"] = recorder.sequence[samples_start:]
        record["ok"] = record["n_trees"] == stream["n_trees"] and (
            record.get("n_values", stream["n_values"]) == stream["n_values"])
        passes.append(record)
    rss_mb = vm_hwm_mb()
    stream, corpus, seed, target, checkpoints = last
    if workload == "corpus-dblp":
        gates = dblp_gates(manifest, stream, corpus, seed, checkpoints)
    else:
        gates = window_gates(manifest, stream, corpus, seed, target)
    gates["pass_tree_counts"] = [
        all(p["ok"] for p in passes),
        "every pass ingested its stream's trees and pattern occurrences",
    ]
    exact = [[q["exact"] for q in s["queries"]] if workload == "corpus-dblp"
             else [e for _, e in s["scored"]] for s in streams]
    return {
        "passes": passes,
        "estimates": [estimates[j] for j in range(draws)],
        "exact": exact,
        "rss_mb": rss_mb,
        "gates": gates,
        "attempted": recorder.attempted + len(passes),
        "failed": recorder.failed,
        "query_layers": query_layers(recorder, streams, workload) if trace else {},
    }


def query_layers(recorder: Queries, streams: list[dict], workload: str) -> dict[str, float]:
    """Per-kind estimator latency (p50, ms) and unordered fan-out."""
    prefix = "window" if workload == "window-treebank-topk" else "query"
    layers = {
        f"{prefix}.estimate_{kind}_ms": percentile(samples, 0.5)
        for kind, samples in recorder.latency_ms.items()
    }
    unordered = [pattern_from_sexpr(q["query"]) for s in streams for q in s["queries"]
                 if q["kind"] == "unordered"]
    if unordered and prefix == "query":
        layers["query.arrangements_per_unordered"] = (
            sum(len(arrangements(p)) for p in unordered) / len(unordered)
        )
    return layers


def setup_probe(manifest: dict, inputs: Path) -> None:
    """Construct the system under test exactly as a timed pass does."""
    corpus = inputs / manifest["streams"][0]["corpus"]
    seed = pass_seed(manifest["seed"], 0)
    if manifest["workload"] == "corpus-dblp":
        dblp_setup(manifest, corpus, Path(tempfile.mkdtemp(prefix="probe-", dir=inputs)), seed)
    else:
        window_setup(manifest, corpus, seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    manifest = json.loads((args.inputs / "manifest.json").read_text(encoding="utf-8"))
    if args.setup_only:
        setup_probe(manifest, args.inputs)
        print("ready", flush=True)
        return 0
    result = run(manifest, args.inputs, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
