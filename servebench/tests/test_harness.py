"""Tests of the serving benchmark's own harness (not of ``repro``)."""

import json
import os

import numpy as np
import pytest

from repro.serve import InferenceRequest, ServingEngine, WorkloadFamily
from repro.serve.sampling import TokenChunk

from servebench import layers, loadgen, metrics, spans
from servebench import workloads as W

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ----------------------------------------------------------------- schedules
@pytest.mark.parametrize("name", ["chat", "longdoc"])
def test_same_seed_gives_identical_schedule_and_prompts(name):
    workload = W.WORKLOADS[name]
    first = W.schedule(workload, 7, 15.0)
    again = W.schedule(workload, 7, 15.0)
    other = W.schedule(workload, 8, 15.0)
    assert [a.due for a in first] == [a.due for a in again]
    assert [a.key for a in first] == [a.key for a in again]
    assert all(np.array_equal(a.prompt, b.prompt) for a, b in zip(first, again))
    assert [a.key for a in first] != [a.key for a in other]
    # The seed fills a fixed template: timing and lengths do not move.
    assert [(a.due, a.prompt.size, a.max_new_tokens) for a in first] == \
        [(a.due, a.prompt.size, a.max_new_tokens) for a in other]


def test_same_seed_gives_identical_conversations():
    workload = W.WORKLOADS["multiturn"]
    first = W.conversations(workload, 3, 20.0)
    again = W.conversations(workload, 3, 20.0)
    other = W.conversations(workload, 4, 20.0)
    assert [c.key for c in first] == [c.key for c in again]
    assert all(np.array_equal(x, y) for a, b in zip(first, again)
               for x, y in zip(a.segments, b.segments))
    assert [c.key for c in first] != [c.key for c in other]
    # Content varies with the seed; the amount of work does not.
    assert [c.replies for c in first] == [c.replies for c in other]
    assert len({c.key for c in first}) == len(first) >= workload.users


def test_schedules_keep_their_shape():
    chat = W.schedule(W.WORKLOADS["chat"], 1, 20.0)
    assert len(chat) == round(W.WORKLOADS["chat"].rate * 20.0)
    assert len({a.key for a in chat}) == len(chat)  # prompts are unique
    assert chat[-1].due == pytest.approx(20.0)
    assert all(16 <= a.prompt.size <= 64 and 16 <= a.max_new_tokens <= 64 for a in chat)
    doc = W.schedule(W.WORKLOADS["longdoc"], 1, 20.0)
    docs = [a for a in doc if a.kind == "doc"]
    assert [a.kind == "doc" for a in doc] == [i % 4 == 3 for i in range(len(doc))]
    assert all(512 <= a.prompt.size <= 896 for a in docs)


def test_split_schedule_keeps_every_arrival_in_its_window():
    chat = W.schedule(W.WORKLOADS["chat"], 1, 24.0)
    windows = W.split_schedule(chat, 24.0, 3)
    assert sum(len(w) for w in windows) == len(chat)
    rejoined = [(a.due + k * 8.0, a.key) for k, w in enumerate(windows) for a in w]
    assert [d for d, _ in rejoined] == pytest.approx([a.due for a in chat])
    assert [key for _, key in rejoined] == [a.key for a in chat]
    assert all(0.0 <= a.due <= 8.0 + 1e-9 for w in windows for a in w)


# --------------------------------------------------------------- percentiles
def test_percentile_refuses_fewer_than_ten_samples_beyond():
    values = list(range(100))
    assert metrics.percentile(values, 90) == 89.0
    with pytest.raises(metrics.TooFewSamples):
        metrics.percentile(values[:99], 90)
    with pytest.raises(metrics.TooFewSamples):
        metrics.percentile(list(range(19)), 50)
    assert metrics.percentile(list(range(20)), 50) == 9.0
    assert metrics.highest_percentile(100) == 90
    assert metrics.highest_percentile(1000) == 99
    assert metrics.highest_percentile(10) is None


# ----------------------------------------------------------------- self time
def test_self_time_on_a_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 5.5, 6.0, 9.0, 9.0, 10.0])
    log = spans.SpanLog(clock=lambda: next(ticks))
    root = log.open("root")              # 0 .. 10
    a = log.open("a")                    # 1 .. 5
    a1 = log.open("a1")                  # 2 .. 4
    log.close(a1)
    log.close(a)
    b = log.open("b")                    # 5.5 .. 9
    b1 = log.open("b1")                  # 6 .. 9
    log.close(b1)
    log.close(b)
    log.close(root)
    # Overlapping after-the-fact children of root are counted once.
    log.add("late", 4.5, 7.0, root)
    selves = spans.self_times(log.spans)
    assert selves[root] == pytest.approx(10.0 - 8.0)  # children cover [1, 9]
    assert selves[a] == pytest.approx(4.0 - 2.0)
    assert selves[a1] == pytest.approx(2.0)
    assert selves[b] == pytest.approx(0.5)
    assert selves[b1] == pytest.approx(3.0)
    assert spans.roots(log.spans) == [0] * len(log.spans)


def test_spans_close_in_order_and_write_jsonl(tmp_path):
    log = spans.SpanLog()
    outer = log.open("outer", trace_id="r1")
    inner = log.open("inner", trace_id="r1")
    with pytest.raises(RuntimeError):
        log.close(outer)
    log.close(inner)
    log.close(outer)
    path = tmp_path / "spans.jsonl"
    log.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["name"], r["parent"], r["trace_id"]) for r in rows] == [
        ("outer", -1, "r1"), ("inner", 0, "r1")]


# ------------------------------------------------------------------ wrappers
def test_wrappers_record_and_are_fully_removed():
    probes = layers.probes()
    originals = [vars(p.owner)[p.attr] for p in probes]
    log = spans.SpanLog()
    engine = ServingEngine(num_slots=2, prefill_chunk_tokens=16)
    prompts = [np.arange(40) % 90, np.arange(12) % 90 + 3]
    with spans.install(log, probes):
        assert all(vars(p.owner)[p.attr] is not o for p, o in zip(probes, originals))
        root = log.open("serve")
        for prompt in prompts:
            engine.submit(InferenceRequest("gpt2-xl", WorkloadFamily.LM, prompt, max_new_tokens=4))
        while engine.pending:
            engine.step()
        log.close(root)
    assert all(vars(p.owner)[p.attr] is o for p, o in zip(probes, originals))
    names = {s.name for s in log.spans}
    for name in ("scheduler.step", "model.prefill", "model.decode", "nn.linear", "nn.gelu",
                 "kvcache.append", "kvcache.gather", "ovp.encode", "sampling.sample",
                 "stats.record", "repository.get"):
        assert name in names
    values = layers.reduce(log, root, {"decode_hits": 1, "decode_misses": 1,
                                       "prefix_pages_attached": 0}, 52, 3, 16)
    assert values["model.prefill_tokens"] == 52  # chunked prefill counted whole
    assert values["model.decode_rows"] > 0 and values["scheduler.steps"] > 0


def test_install_restores_when_a_probe_is_invalid():
    probes = layers.probes()[:3] + [spans.Probe(W, "no_such_function", "x")]
    originals = [vars(p.owner)[p.attr] for p in probes[:3]]
    with pytest.raises(KeyError):
        spans.install(spans.SpanLog(), probes)
    assert all(vars(p.owner)[p.attr] is o for p, o in zip(probes, originals))


# ------------------------------------------------------------------- loadgen
class _FakeEngine:
    """Emits every submitted request's single token on the next step."""

    def __init__(self):
        self.queued, self.chunks = [], {}

    @property
    def pending(self):
        return len(self.queued)

    def submit(self, request):
        self.queued.append(request.request_id)

    def step(self):
        for rid in self.queued:
            self.chunks[rid] = TokenChunk(rid, 0, 5, finish_reason="length")
        self.queued = []

    def next_chunk(self, rid):
        return self.chunks.pop(rid, None)

    def take_failures(self):
        return []

    def discard_result(self, rid):
        pass


def test_open_loop_sleeps_until_due_and_times_from_due():
    now = [100.0]
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        now[0] += seconds

    arrivals = [W.Arrival(due, "short", (16, 0), np.zeros(16, dtype=np.int64), 1)
                for due in (0.5, 2.0)]
    served = loadgen.run_open(_FakeEngine(), arrivals, clock=lambda: now[0], sleep=sleep)
    assert slept == [pytest.approx(0.5), pytest.approx(1.5)]
    assert [r.due for r in served.records] == [100.5, 102.0]
    assert all(r.tokens == [5] and r.finish_reason == "length" for r in served.records)


def test_closed_loop_chains_turns_on_the_reply():
    jobs = W.conversations(W.WORKLOADS["multiturn"], 1, 1.0)[:3]
    served = loadgen.run_closed(_FakeEngine(), 2, jobs)
    turns = served.records
    assert len(turns) == sum(len(c.segments) for c in jobs)
    by_conv = {}
    for r in turns:
        by_conv.setdefault(r.key[:2], []).append(r)
    for conv in jobs:
        lengths = [r.prompt_len for r in by_conv[conv.key]]
        assert lengths[0] == W.SYSTEM_PROMPT_TOKENS + conv.segments[0].size
        for turn in range(1, len(lengths)):  # previous prompt + 1-token reply + new tokens
            assert lengths[turn] == lengths[turn - 1] + 1 + conv.segments[turn].size


# ------------------------------------------------------------- declarations
def test_benchmark_json_matches_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(layers.PER_LAYER)
