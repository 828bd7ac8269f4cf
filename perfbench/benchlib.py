"""Pure helpers of the benchmark: seeded input schedules and statistics.

Everything here is deterministic in its arguments, so the tests in
perfbench/tests can pin it down without building anything.
"""

import bisect
import math
import random
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it, so p50 needs 20 samples and p99 needs 1,000.
MIN_BEYOND = 10

# Serving traffic mix: BFS from random sources, plus CC and PageRank,
# dealt from shuffled blocks of 100 so the shares are exact.
MIX = (("bfs", 0.90), ("cc", 0.07), ("pr", 0.03))


def percentile(values, q):
    """Nearest-rank q-quantile of `values` and the count of samples
    ranked beyond it. q = 0.5 gives the median (interpolated between
    the two middle samples when the count is even)."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        return None, 0
    k = max(0, math.ceil(q * n) - 1)
    value = statistics.median(s) if q == 0.5 else s[k]
    return value, n - k - 1


def reportable(values, q):
    """The q-quantile when at least MIN_BEYOND samples lie beyond it,
    else None."""
    value, beyond = percentile(values, q)
    return value if value is not None and beyond >= MIN_BEYOND else None


def interquartile_mean(values):
    """Mean of the middle half of `values` (None below 20 samples, the
    median's own minimum). Serving latencies are bimodal - a lone BFS
    runs alone, a coalesced one waits for a multi-source sweep - and a
    median sitting between the two modes jumps from one to the other as
    their mix shifts; the middle half's mean moves smoothly with it and
    still ignores the tails."""
    s = sorted(values)
    n = len(s)
    if n < min_samples(0.5):
        return None
    return statistics.fmean(s[n // 4:n - n // 4])


def min_samples(q):
    """Smallest sample count for which the q-quantile is reportable."""
    n = 1
    while percentile(range(n), q)[1] < MIN_BEYOND:
        n += 1
    return n


def poisson_arrivals(rng, rate, start_s, duration_s):
    """Open-loop arrival times (seconds) of a Poisson process."""
    times = []
    t = start_s
    while True:
        t += rng.expovariate(rate)
        if t >= start_s + duration_s:
            return times
        times.append(t)


def pick_roots(seed, sources, count):
    """`count` distinct BFS roots drawn from vertices with out-edges."""
    return random.Random(seed).sample(sources, count)


def mix_deck(rng):
    """One shuffled block of 100 request kinds holding exactly the MIX
    shares, so every window of a run carries the same proportions."""
    deck = [kind for kind, share in MIX for _ in range(round(share * 100))]
    rng.shuffle(deck)
    return deck


def read_request(rng, kind, sources, graph, values_share):
    """One serving request of `kind`: (values flag, request JSON)."""
    values = kind != "pr" and rng.random() < values_share
    fields = ['"op":"%s"' % kind, '"graph":"%s"' % graph]
    if kind == "bfs":
        fields.append('"source":%d' % rng.choice(sources))
    if values:
        fields.append('"values":true')
    return values, "{" + ",".join(fields) + "}"


def serving_schedule(seed, sources, rate, warmup_s, seconds, values_share,
                     ingest_lines, graph="g"):
    """The loadgen schedule of one run, as text lines

        <due_us> <kind> <phase> <values> <json>

    Reads arrive as a Poisson process at `rate`: a discarded warm-up of
    `warmup_s`, then the measured window of `seconds`. After the window,
    the final phase sends each ingest line, then a `list` and a CC with
    values that check the published graph; final entries go out one at
    a time, each once every earlier reply is in."""
    rng = random.Random(seed)
    lines = []
    deck = []
    for phase, start, length in (("w", 0.0, warmup_s),
                                 ("m", warmup_s, seconds)):
        for t in poisson_arrivals(rng, rate, start, length):
            deck = deck or mix_deck(rng)
            kind = deck.pop()
            values, json = read_request(
                rng, kind, sources, graph,
                values_share if phase == "m" else 0.0)
            lines.append("%d %s %s %d %s" % (round(t * 1e6), kind, phase,
                                              int(values), json))
    end = round((warmup_s + seconds) * 1e6)
    lines += ["%d ingest f 0 %s" % (end, line) for line in ingest_lines]
    lines.append('%d list f 0 {"op":"list"}' % end)
    lines.append('%d cc f 1 {"op":"cc","graph":"%s","values":true}'
                 % (end, graph))
    return lines


class Histogram:
    """Cumulative Prometheus histogram buckets of one series."""

    def __init__(self):
        self.buckets = {}  # upper bound (seconds) -> cumulative count
        self.sum = 0.0     # of every recorded value (seconds)


def parse_histograms(text, name):
    """Series of histogram `name` in a Prometheus text exposition, keyed
    by their label set without `le`, e.g. 'op=bfs,stage=execute'."""
    series = {}
    for line in text.splitlines():
        if not line.startswith(name + "_"):
            continue
        head, value = line.rsplit(" ", 1)
        kind, _, labels = head[len(name) + 1:].partition("{")
        parts = dict(p.split("=", 1) for p in labels.rstrip("}").split(","))
        parts = {k: v.strip('"') for k, v in parts.items()}
        le = parts.pop("le", None)
        key = ",".join("%s=%s" % kv for kv in sorted(parts.items()))
        hist = series.setdefault(key, Histogram())
        if kind == "bucket":
            hist.buckets[math.inf if le == "+Inf" else float(le)] = int(value)
        elif kind == "sum":
            hist.sum = float(value)
    return series


def window_counts(before, after):
    """Samples recorded between two scrapes of the same histograms, per
    bucket upper bound, merged across every series of `after`."""
    merged = {}
    for key, hist in after.items():
        old = before.get(key, Histogram()).buckets
        old_bounds = sorted(old)
        prev = 0
        for le in sorted(hist.buckets):
            # Empty buckets are left out of a scrape; the earlier
            # cumulative count at `le` is that of the largest listed
            # bound not above it.
            i = bisect.bisect_right(old_bounds, le)
            cum = hist.buckets[le] - (old[old_bounds[i - 1]] if i else 0)
            merged[le] = merged.get(le, 0) + cum - prev
            prev = cum
    return merged


def window_quantile(before, after, q):
    """Nearest-rank q-quantile (seconds) of the samples recorded between
    two scrapes, interpolated linearly inside its bucket, and the sample
    count. The value is None when fewer than MIN_BEYOND samples lie
    beyond it."""
    counts = window_counts(before, after)
    total = sum(counts.values())
    k = max(0, math.ceil(q * total) - 1)
    if total == 0 or total - k - 1 < MIN_BEYOND:
        return None, total
    seen = 0
    lower = 0.0
    for le in sorted(counts):
        if seen + counts[le] > k:
            if le == math.inf:
                return lower, total
            return lower + (le - lower) * (k + 1 - seen) / counts[le], total
        seen += counts[le]
        lower = le
    return None, total


def window_mean(before, after):
    """Mean (seconds) of the samples recorded between two scrapes, merged
    across `after`'s series, and the sample count."""
    total = sum(window_counts(before, after).values())
    spent = sum(h.sum - before.get(k, Histogram()).sum
                for k, h in after.items())
    return (spent / total if total else None), total
