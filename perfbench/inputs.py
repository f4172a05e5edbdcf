"""Input generation and the exact oracle for the benchmark of record.

Runs as its own process, before anything is timed, so that neither the
generators nor the exact counter ever live in the process under
measurement.  From ``--seed`` alone it writes, into ``--out``, one
stream per draw (``draws`` in ``SIZES``; stream ``j`` is generated with
seed ``pass_seed(seed, j)``, the sketch seed of the passes that read it):

* the corpus the measured process reads (``dblp-<s>.xml`` for
  corpus-dblp, ``treebank-<s>.mrg`` for window-treebank-topk,
  ``bodies-<s>.json`` — the pre-serialised 16-tree ``POST /ingest``
  bodies — for serve-http);
* in ``manifest.json``: the configuration, the workload parameters, and
  per stream the query mix with its exact answers (``ExactCounter``)
  and, for serve-http, the answers an in-process single ``SketchTree``
  gives for the ``/admin/estimate/*`` gate.

Same seed, same files.  Run::

    PYTHONPATH=src python3 perfbench/inputs.py --workload corpus-dblp \
        --seed 1 --out perfbench/.work/example
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro import ExactCounter, SketchTree, SketchTreeConfig
from repro.corpora import CorpusReader
from repro.datasets import DblpGenerator, TreebankGenerator
from repro.query.xpath import parse_xpath
from repro.trees import from_nested, to_sexpr
from repro.trees.xml import to_xml
from repro.workload import generate_workload
from stats import MIN_QUERY_SAMPLES, pass_seed

WORKLOADS = ("corpus-dblp", "window-treebank-topk", "serve-http")

#: Workload sizes.  ``full`` is the benchmark of record; ``tiny`` only
#: exercises every code path (the self-test).  Per workload: ``draws``
#: streams, of which the first ``timing_draws`` are timed ``repeats``
#: times (``stats.schedule``), and set-up probes per run.
SIZES = {
    "full": {
        "dblp_draws": 6,
        "dblp_timing_draws": 4,
        "dblp_trees": 200,
        "dblp_batch_trees": 25,
        "dblp_snapshot_every": 50,
        "dblp_repeats": 3,
        "dblp_prefix_trees": 64,
        "dblp_per_bucket": 60,
        "window_draws": 12,
        "window_timing_draws": 2,
        "window_repeats": 3,
        "treebank_trees": 96,
        "window_trees": 48,
        "bucket_trees": 16,
        "window_batch_trees": 8,
        "window_queries_per_batch": 64,
        "window_per_bucket": 40,
        "serve_draws": 4,
        "serve_timing_draws": 4,
        "serve_repeats": 1,
        "serve_trees": 480,
        "serve_body_trees": 16,
        "serve_shards": 2,
        "serve_per_bucket": 20,
        "serve_admin_checks": 6,
        "min_query_samples": MIN_QUERY_SAMPLES,
        "setup_repeats": {"dblp": 6, "window": 6, "serve": 4},
    },
    "tiny": {
        "dblp_draws": 3,
        "dblp_timing_draws": 2,
        "dblp_trees": 48,
        "dblp_batch_trees": 8,
        "dblp_snapshot_every": 16,
        "dblp_repeats": 2,
        "dblp_prefix_trees": 12,
        "dblp_per_bucket": 3,
        "window_draws": 3,
        "window_timing_draws": 2,
        "window_repeats": 2,
        "treebank_trees": 24,
        "window_trees": 8,
        "bucket_trees": 4,
        "window_batch_trees": 4,
        "window_queries_per_batch": 3,
        "window_per_bucket": 3,
        "serve_draws": 2,
        "serve_timing_draws": 2,
        "serve_repeats": 1,
        "serve_trees": 32,
        "serve_body_trees": 16,
        "serve_shards": 2,
        "serve_per_bucket": 3,
        "serve_admin_checks": 2,
        "min_query_samples": 10,
        "setup_repeats": {"dblp": 2, "window": 2, "serve": 2},
    },
}

#: Selectivity bands the query mix is drawn from (count / total pattern
#: occurrences), the same number of patterns from each.  Patterns below
#: 0.05% are left out: their relative error is dominated by sketch
#: noise, which would make ``estimate_rel_error`` a measure of luck
#: rather than of the estimator.
BUCKETS = ((0.0005, 0.001), (0.001, 0.002), (0.002, 1.0))

#: Patterns per SUM query (Theorem 2's distinct-pattern sum).
SUM_ARITY = 3


#: The paper's configuration (Section 7.1) minus the seed: each stream
#: ``j`` of a run uses ``pass_seed(seed, j)``.
CONFIG = {
    "s1": 50, "s2": 7, "max_pattern_edges": 4, "n_virtual_streams": 229,
    "mapping": "rabin", "topk_probability": 1.0,
}


def to_xpath(pattern) -> str:
    """A plain pattern as an XPath-subset path: children become predicates."""
    label, children = pattern
    return label + "".join(f"[{to_xpath(child)}]" for child in children)


def sample_patterns(exact: ExactCounter, per_bucket: int, seed: int) -> list:
    """Up to ``per_bucket`` patterns from each selectivity band."""
    workload = generate_workload(exact, BUCKETS, max_per_bucket=per_bucket, seed=seed)
    patterns = [query.pattern for query in workload.all_queries()]
    if len(patterns) < SUM_ARITY:
        raise SystemExit(f"query mix too small: {len(patterns)} patterns")
    return patterns


def query_mix(exact: ExactCounter, patterns: list, kinds: tuple[str, ...]) -> list[dict]:
    """The query mix over ``patterns`` with exact answers from ``exact``.

    Every pattern is asked once per kind; its SUM query adds the next
    ``SUM_ARITY - 1`` patterns (cyclically), so there are as many SUM
    queries as queries of any other kind.
    """
    queries: list[dict] = []
    for pattern in patterns:
        text = to_sexpr(from_nested(pattern))
        for kind in kinds:
            if kind in ("ordered", "interval"):
                queries.append({"kind": kind, "query": text,
                                "exact": exact.count_ordered(pattern)})
            elif kind == "unordered":
                queries.append({"kind": kind, "query": text,
                                "exact": exact.count_unordered(pattern)})
            elif kind == "xpath":
                xpath = to_xpath(pattern)
                if parse_xpath(xpath).to_pattern() != pattern:
                    raise SystemExit(f"xpath {xpath!r} does not encode {text}")
                queries.append({"kind": kind, "query": xpath,
                                "exact": exact.count_ordered(pattern)})
    if "sum" in kinds:
        for start in range(len(patterns)):
            group = [patterns[(start + i) % len(patterns)] for i in range(SUM_ARITY)]
            queries.append({
                "kind": "sum",
                "query": [to_sexpr(from_nested(p)) for p in group],
                "exact": exact.count_sum(group),
            })
    return queries


def nested_of(trees) -> list:
    return [tree.to_nested() for tree in trees]


def make_corpus_dblp(out: Path, seed: int, size: dict) -> dict:
    trees = list(DblpGenerator(seed=seed).generate(size["dblp_trees"]))
    path = out / f"dblp-{seed}.xml"
    path.write_text(
        "<dblp>\n" + "\n".join(to_xml(tree) for tree in trees) + "\n</dblp>\n",
        encoding="utf-8",
    )
    # The oracle counts the generated trees; the file must read back as
    # exactly those trees, or the oracle would describe another stream.
    if nested_of(CorpusReader(str(path), format="dblp-xml")) != nested_of(trees):
        raise SystemExit(f"{path.name} does not read back as the generated stream")
    exact = ExactCounter(4).ingest(trees)
    return {
        "corpus": path.name,
        "n_trees": len(trees),
        "n_values": exact.n_values,
        "queries": query_mix(
            exact, sample_patterns(exact, size["dblp_per_bucket"], seed),
            ("ordered", "unordered", "interval", "xpath", "sum"),
        ),
    }


def window_coverage(n_trees: int, window_trees: int, bucket_trees: int) -> int:
    """First stream position a ``WindowedSketchTree`` still covers.

    The window keeps ``ceil(window/bucket)`` complete buckets plus the
    bucket in progress (see ``WindowedSketchTree._rotate``).
    """
    n_buckets = -(-window_trees // bucket_trees)
    complete = n_trees // bucket_trees
    return max(0, complete - n_buckets) * bucket_trees


def make_window_treebank(out: Path, seed: int, size: dict) -> dict:
    """The PTB corpus, and exact answers for the window positions queried.

    The worker issues ``window_queries_per_batch`` queries (cycling
    through the mix) after every micro-batch.  Every query issued once
    the window is full is scored against the exact count of the trees
    the window covers at that moment, so the error averages over many
    windows rather than describing one.  Patterns are sampled from those
    present in every scored window.
    """
    trees = list(TreebankGenerator(seed=seed).generate(size["treebank_trees"]))
    path = out / f"treebank-{seed}.mrg"
    path.write_text("\n".join(to_sexpr(tree) for tree in trees) + "\n", encoding="utf-8")
    if nested_of(CorpusReader(str(path), format="ptb")) != nested_of(trees):
        raise SystemExit(f"{path.name} does not read back as the generated stream")
    window, bucket = size["window_trees"], size["bucket_trees"]
    batch, per_batch = size["window_batch_trees"], size["window_queries_per_batch"]
    positions = [min(len(trees), stop) for stop in range(batch, len(trees) + batch, batch)]
    exact_at = {
        index: ExactCounter(4).ingest(trees[window_coverage(n, window, bucket):n])
        for index, n in enumerate(positions) if n >= window
    }
    final = exact_at[len(positions) - 1]
    present = set.intersection(*(set(e.counts) for e in exact_at.values()))
    sampled = ExactCounter(4)
    sampled.counts.update({p: c for p, c in final.counts.items() if p in present})
    sampled.n_values = final.n_values
    patterns = sample_patterns(sampled, size["window_per_bucket"], seed)
    kinds = ("ordered", "unordered", "interval")
    queries = query_mix(final, patterns, kinds)
    scored = []
    for index, exact in exact_at.items():
        answers = [q["exact"] for q in query_mix(exact, patterns, kinds)]
        for issued in range(index * per_batch, (index + 1) * per_batch):
            scored.append([issued, answers[issued % len(queries)]])
    return {
        "corpus": path.name,
        "n_trees": len(trees),
        "n_values": ExactCounter(4).ingest(trees).n_values,
        "window_first_tree": window_coverage(len(trees), window, bucket),
        "queries": queries,
        "scored": scored,
    }


def make_serve_http(out: Path, seed: int, size: dict, admin: bool = False) -> dict:
    trees = list(DblpGenerator(seed=seed).generate(size["serve_trees"]))
    texts = [to_sexpr(tree) for tree in trees]
    step = size["serve_body_trees"]
    bodies = [
        json.dumps({"trees": texts[start : start + step]})
        for start in range(0, len(texts), step)
    ]
    path = out / f"bodies-{seed}.json"
    path.write_text(json.dumps(bodies), encoding="utf-8")
    exact = ExactCounter(4).ingest(trees)
    queries = query_mix(
        exact, sample_patterns(exact, size["serve_per_bucket"], seed),
        ("ordered", "unordered", "sum", "xpath"),
    )
    stream = {
        "corpus": path.name,
        "n_trees": len(trees),
        "n_values": exact.n_values,
        "queries": queries,
    }
    if not admin:
        return stream
    # The /admin/estimate/* gate (checked on the first pass): a single
    # in-process synopsis over the same stream, with the pass's sketch
    # seed, answers bit-identically (AMS linearity over shards).
    reference = SketchTree(SketchTreeConfig(**CONFIG, seed=seed))
    reference.update_batch(trees)
    admin_checks = []
    for kind in ("ordered", "unordered", "sum", "xpath"):
        picked = [q for q in queries if q["kind"] == kind][: size["serve_admin_checks"]]
        for query in picked:
            if kind == "sum":
                expected = reference.estimate_sum(query["query"])
            elif kind == "unordered":
                expected = reference.estimate_unordered(query["query"])
            elif kind == "xpath":
                expected = reference.estimate_xpath(query["query"])
            else:
                expected = reference.estimate_ordered(query["query"])
            admin_checks.append({"kind": kind, "query": query["query"],
                                 "expected": expected})
    stream["admin_checks"] = admin_checks
    return stream


MAKERS = {
    "corpus-dblp": make_corpus_dblp,
    "window-treebank-topk": make_window_treebank,
    "serve-http": make_serve_http,
}

#: Workload parameters shared by every stream of a run.
PARAMETERS = {
    "corpus-dblp": ("dblp_batch_trees", "dblp_snapshot_every", "dblp_prefix_trees"),
    "window-treebank-topk": ("window_trees", "bucket_trees", "window_batch_trees",
                             "window_queries_per_batch"),
    "serve-http": ("serve_body_trees", "serve_shards"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    size = SIZES[args.size]
    topk = 8 if args.workload == "window-treebank-topk" else 0
    prefix = {"corpus-dblp": "dblp", "window-treebank-topk": "window",
              "serve-http": "serve"}[args.workload]
    seeds = [pass_seed(args.seed, draw) for draw in range(size[f"{prefix}_draws"])]
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "config": dict(CONFIG, topk_size=topk),
        "draw_seeds": seeds,
        "timing_draws": size[f"{prefix}_timing_draws"],
        "repeats": size[f"{prefix}_repeats"],
        "min_query_samples": size["min_query_samples"],
        "setup_repeats": size["setup_repeats"][prefix],
        **{name: size[name] for name in PARAMETERS[args.workload]},
        "streams": [],
    }
    for draw, seed in enumerate(seeds):
        # serve-http checks /admin/estimate/* on the first stream only.
        options = {"admin": draw == 0} if args.workload == "serve-http" else {}
        manifest["streams"].append(MAKERS[args.workload](args.out, seed, size, **options))
    (args.out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
