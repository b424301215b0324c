"""Pure helpers of the benchmark: percentile selection, failure counting,
digests, span self time and the Perfetto trace file.  No I/O besides the
trace writer, so perfbench/test_benchlib.py can check them directly."""

import hashlib
import json
import math
import statistics

# Outcomes of one operation.  Anything but OK counts as failed.
OK = "ok"
ERROR = "error"        # served {"status": "error"}
BUSY = "busy"          # served {"status": "busy"} (queue full)
DIGEST = "digest"      # ran, but its document differs from the expected one
EXIT = "exit"          # a CLI process exited non-zero or timed out


def tail_percentile(samples, target=90.0, beyond=10):
    """The highest percentile, capped at `target`, that still has at least
    `beyond` samples above it, by nearest rank on the sorted samples.

    Returns (percentile, value); the percentile is `target` when its
    nearest rank qualifies, else the rank as a share of n.  With too few
    samples for any percentile
    above the median to keep `beyond` samples above it, the median is
    returned as the 50th percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    want = max(math.ceil(target / 100.0 * n) - 1, 0)
    limit = n - 1 - beyond          # the highest rank with `beyond` above it
    median_rank = math.ceil(0.5 * n) - 1
    rank = min(want, limit)
    if rank <= median_rank:
        return 50.0, statistics.median(ordered)
    if rank == want:
        return target, ordered[rank]
    return 100.0 * (rank + 1) / n, ordered[rank]


def count_failures(outcomes):
    """(attempted, failed, failed_ratio) over a list of outcomes."""
    attempted = len(outcomes)
    failed = sum(1 for outcome in outcomes if outcome != OK)
    return attempted, failed, (failed / attempted if attempted else 0.0)


def served_outcome(response, expected_digest):
    """Outcome of one served request from its terminal response line."""
    status = response.get("status")
    if status == "busy":
        return BUSY
    if status != "ok":
        return ERROR
    if canonical_digest(response["result"]) != expected_digest:
        return DIGEST
    return OK


def raw_digest(data):
    return hashlib.sha256(data).hexdigest()


def canonical_digest(document):
    """Digest of a JSON document's value: keys sorted, no whitespace.  Every
    number the program writes round-trips exactly, so two documents have
    the same digest iff they hold the same values."""
    if isinstance(document, (bytes, str)):
        document = json.loads(document)
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _union_ns(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, end = 0, lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Self time of every span, in the unit of its timestamps.

    A span is (name, start, end, parent, op, replay, host).  A span's self
    time is its duration minus the part of its interval covered by the
    spans that ran directly inside it (its children, and replays it
    hosted); overlapping ones count once.  A replay re-runs, after the
    fact and on the same inputs, a call that ran inside its `parent`
    without a span of its own, so its duration is also taken out of that
    parent's self time.  Per-span values may dip below zero where a replay
    ran slower than the original call; layer_totals floors the sums."""
    inside = [[] for _ in spans]
    replayed = [0] * len(spans)
    for span in spans:
        parent, replay, host = span[3], span[5], span[6]
        if host >= 0:
            inside[host].append((span[1], span[2]))
        if replay and parent >= 0:
            replayed[parent] += span[2] - span[1]
    return [span[2] - span[1] - _union_ns(inside[i], span[1], span[2])
            - replayed[i] for i, span in enumerate(spans)]


def layer_totals(spans):
    """{name: (count, total, self)} over all spans, self floored at 0."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        count, total, self_total = table.get(span[0], (0, 0, 0))
        table[span[0]] = (count + 1, total + span[2] - span[1],
                          self_total + own)
    return {name: (count, total, max(own, 0))
            for name, (count, total, own) in table.items()}


def perfetto_events(spans, op_ids, client_spans=()):
    """Chrome trace-event JSON (Perfetto opens it) for in-process spans
    (timestamps in ns) and client-side spans (name, start_ns, end_ns, id).
    Replayed spans go on their own track."""
    starts = [s[1] for s in spans] + [s[1] for s in client_spans]
    origin = min(starts) if starts else 0
    events = [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": "in-process replica"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "calls"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2,
         "args": {"name": "replayed calls"}},
    ]
    for name, start, end, parent, op, replay, _ in spans:
        events.append({
            "name": name, "ph": "X", "pid": 1, "tid": 2 if replay else 1,
            "ts": (start - origin) / 1000.0, "dur": (end - start) / 1000.0,
            "args": {"request": op_ids[op] if 0 <= op < len(op_ids) else "",
                     "parent": parent}})
    if client_spans:
        events.append({"name": "process_name", "ph": "M", "pid": 2,
                       "args": {"name": "benchmark client"}})
    for name, start, end, request_id in client_spans:
        events.append({
            "name": name, "ph": "X", "pid": 2, "tid": 1,
            "ts": (start - origin) / 1000.0, "dur": (end - start) / 1000.0,
            "args": {"request": request_id}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
