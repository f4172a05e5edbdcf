"""Pure helpers shared by the benchmark's processes (no repro imports).

Kept free of the system under test so that the orchestrator and the
HTTP client never load it: only the measured process and the server
pay its import and memory cost.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

#: Upper limit on the draws of a run.  Draw ``j`` is a stream generated
#: with, and sketched with, the seed ``pass_seed(seed, j)``; the workload
#: sets the number of draws (``inputs.SIZES``).  Throughput and accuracy
#: both depend on the stream and, for accuracy, on the hash seed; a run
#: that covers several draws narrows the seed-to-seed spread of its
#: metrics while staying deterministic per ``--seed``.
MAX_DRAWS = 32


def pass_seed(seed: int, draw: int) -> int:
    """Data and sketch seed of draw ``draw`` of a run."""
    if not 0 <= draw < MAX_DRAWS:
        raise ValueError(f"draw {draw} outside 0..{MAX_DRAWS - 1}")
    return seed * MAX_DRAWS + draw


def schedule(draws: int, timing_draws: int, repeats: int,
             trace: bool) -> list[tuple[int, bool]]:
    """``(draw, traced)`` per pass of a run, in order.

    The first ``timing_draws`` streams are timed: the run goes
    ``repeats`` times over them (``best_of``).  Every other draw is
    ingested once, only to widen the sample the accuracy metric averages
    over; those passes are spread over the gaps between the rounds, so
    that the repeats of a stream lie as far apart in time as the run
    allows.  With ``trace`` every timing pass is followed by a traced
    pass over the same stream, and half as many rounds (at least one)
    keep the run about as long as an untraced one.
    """
    rounds = max(1, repeats // 2) if trace else repeats
    kinds = (False, True) if trace else (False,)
    extra = list(range(timing_draws, draws))
    gaps = max(1, rounds - 1)
    plan: list[tuple[int, bool]] = []
    for index in range(rounds):
        plan += [(draw, traced) for draw in range(timing_draws) for traced in kinds]
        if index < gaps:
            plan += [(draw, False) for draw in
                     extra[index * len(extra) // gaps:(index + 1) * len(extra) // gaps]]
    return plan


def best_of(repeats: list[list[float]]) -> list[float]:
    """Element-wise minimum over repeats of one sequence of timings.

    Each repeat times the same deterministic work in the same order (the
    micro-batches of one stream, or the queries issued over it), so
    position ``i`` of every repeat measures the same operation.  Other
    tenants of a shared host slow it by up to 1.7x for stretches of
    0.05 s to minutes; the least of a few repeats taken seconds apart is
    the operation's own time whenever one repeat ran unslowed, so a
    run's sum or percentiles of these minima move less with the share of
    slowed stretches than a median over passes does.  A run that is
    slowed throughout still reads slow.  NaN (a failed operation) is
    skipped.
    """
    lengths = {len(r) for r in repeats}
    if len(lengths) != 1:
        raise ValueError(f"repeats of different lengths: {sorted(lengths)}")
    return [min((x for x in column if not math.isnan(x)), default=math.nan)
            for column in zip(*repeats)]


def best_of_passes(passes: list[dict]) -> tuple[float, list[float]]:
    """Trees per second and query latencies of a run, best of repeats.

    ``passes`` carry ``draw``, ``n_trees``, ``batch_s`` (seconds per
    micro-batch) and ``latency_ms`` (per query issued).  Per stream, each
    micro-batch and each query counts with its best repeat; throughput is
    the streams' trees over the sum of those batch times.
    """
    by_draw: dict[int, list[dict]] = {}
    for p in passes:
        by_draw.setdefault(p["draw"], []).append(p)
    if len({len(group) for group in by_draw.values()}) != 1:
        raise ValueError("best of repeats needs the same number of passes per draw")
    trees = seconds = 0.0
    latency: list[float] = []
    for group in by_draw.values():
        trees += group[0]["n_trees"]
        seconds += sum(best_of([p["batch_s"] for p in group]))
        latency += [x for x in best_of([p["latency_ms"] for p in group]) if not math.isnan(x)]
    return trees / seconds, latency


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: Least query samples a run times: the p99 then has ten samples
#: beyond it.
MIN_QUERY_SAMPLES = 1000


def pooled_rate(passes: list[dict]) -> float:
    """Trees per second over all ``passes``: their trees over their seconds."""
    return sum(p["n_trees"] for p in passes) / sum(p["seconds"] for p in passes)


def relative_errors(estimates: list[float], exact: list[int]) -> list[float]:
    """``|estimate - exact| / exact`` per query; exact answers are > 0."""
    if len(estimates) != len(exact):
        raise ValueError(f"{len(estimates)} estimates for {len(exact)} queries")
    return [abs(e - x) / x for e, x in zip(estimates, exact)]


#: Largest mean relative error a correct synopsis shows on the query
#: mix.  Measured means are about 0.1 without top-k and under 0.01
#: with it (s1=50, bands >= 0.05% selectivity); a wrong answer such as
#: a tenfold estimate moves the mean far past the gate.
REL_ERROR_GATE = 0.5


def rel_error_gate(estimates: list[float], exact: list[int]) -> tuple[bool, float]:
    """The accuracy gate: every estimate finite, mean error under the gate."""
    if not all(math.isfinite(e) for e in estimates):
        return False, math.inf
    mean = statistics.fmean(relative_errors(estimates, exact))
    return mean <= REL_ERROR_GATE, mean


def vm_hwm_mb(pid: int | str = "self") -> float:
    """High-water resident set size (``VmHWM``) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def host_speed_ms() -> float:
    """Median milliseconds of a fixed pure-Python loop: how fast this
    host runs Python right now (recorded beside every pass, not a metric)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)
