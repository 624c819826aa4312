"""Per-layer probes on ``repro``'s public functions and their reduction.

Each probe wraps one public function (see :func:`probes`) so the traced run
records a span around every call without editing ``src/``.  Model passes
are split by call shape: ``log_probs_incremental`` with ``last_only`` is a
prefill, with ``batched_rounds`` a speculative verify, otherwise a decode
round; a backbone pass outside any of those is a draft proposal inside
``SpeculativeDecoder.plan`` or else a non-final chunk of chunked prefill.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

import numpy as np

from repro.core.ovp import OVPairCodec
from repro.models.zoo import CausalLM
from repro.nn import functional as F
from repro.nn.attention import MultiHeadAttention
from repro.nn.layers import Linear
from repro.nn.transformer import FeedForward, TransformerDecoder
from repro.serve.kvcache import LayerKVCache, PagePool
from repro.serve.repository import ModelRepository
from repro.serve.sampling import Sampler
from repro.serve.scheduler import ContinuousBatchingScheduler
from repro.serve.spec import SpeculativeDecoder
from repro.serve.stats import ServingStats

from servebench.spans import Probe, roots, self_times

MODEL_SPANS = ("model.prefill", "model.decode", "model.verify", "model.draft")

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    ("scheduler.steps", "count", "lower"),
    ("scheduler.step_s", "s", "lower"),
    ("scheduler.self_s", "s", "lower"),
    ("scheduler.batch_mean", "rows", "higher"),
    ("scheduler.queue_depth_mean", "requests", "lower"),
    ("model.prefill_s", "s", "lower"),
    ("model.prefill_tokens", "tokens", "lower"),
    ("model.decode_s", "s", "lower"),
    ("model.decode_rows", "rows", "lower"),
    ("model.verify_s", "s", "lower"),
    ("model.draft_s", "s", "lower"),
    ("nn.linear_s", "s", "lower"),
    ("nn.linear_gflop", "GFLOP", "lower"),
    ("nn.linear_gflops", "GFLOP/s", "higher"),
    ("nn.ffn_s", "s", "lower"),
    ("nn.attention_s", "s", "lower"),
    ("nn.gelu_s", "s", "lower"),
    ("nn.softmax_s", "s", "lower"),
    ("nn.layer_norm_s", "s", "lower"),
    ("kvcache.append_s", "s", "lower"),
    ("kvcache.append_tokens", "tokens", "lower"),
    ("kvcache.gather_s", "s", "lower"),
    ("kvcache.gather_tokens", "tokens", "lower"),
    ("kvcache.pool_decode_s", "s", "lower"),
    ("kvcache.pool_hit_rate", "share", "higher"),
    ("kvcache.prefix_token_share", "share", "higher"),
    ("ovp.encode_s", "s", "lower"),
    ("ovp.encode_mb", "MB", "lower"),
    ("ovp.decode_s", "s", "lower"),
    ("ovp.decode_mb", "MB", "lower"),
    ("sampling.sample_s", "s", "lower"),
    ("stats.record_s", "s", "lower"),
    ("spec.plan_s", "s", "lower"),
    ("spec.acceptance", "share", "higher"),
    ("repository.build_s", "s", "lower"),
    ("loadgen.lag_tail_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
)


def _model_pass(log, args, kwargs):
    if kwargs.get("last_only"):
        return "model.prefill"
    if kwargs.get("batched_rounds"):
        return "model.verify"
    return "model.decode"


def _backbone_pass(log, args, kwargs):
    if any(log.is_open(name) for name in MODEL_SPANS):
        return None  # already inside a model pass
    return "model.draft" if log.is_open("spec.plan") else "model.prefill"


def _shape(args, kwargs, result, before):
    ids = np.asarray(args[1])
    return {"tokens": int(ids.size), "rows": int(ids.shape[0]) if ids.ndim > 1 else 1}


def _linear(args, kwargs, result, before):
    layer, x = args[0], np.asarray(args[1])
    rows = x.size // layer.in_features
    return {"gflop": 2.0 * rows * layer.in_features * layer.out_features / 1e9}


def _append(args, kwargs, result, before):
    return {"tokens": int(np.shape(args[1])[1])}


def _gather_one(args, kwargs, result, before):
    return {"tokens": int(args[0].seq_len)}


def _gather_many(args, kwargs, result, before):
    return {"tokens": int(sum(cache.seq_len for cache in args[1]))}


def _encode(args, kwargs, result, before):
    return {"bytes": int(sum(np.asarray(t).nbytes for t in args[1]))}


def _decode(args, kwargs, result, before):
    return {"bytes": int(np.asarray(result).nbytes)}


def _round(args, kwargs, result, before):
    record = args[1]
    return {
        "active": record.active_slots,
        "queued": record.queue_depth,
        "proposed": record.draft_proposed_tokens,
        "accepted": record.draft_accepted_tokens,
    }


def _misses(args, kwargs):
    return args[0].stats.misses


def _built(args, kwargs, result, before):
    return {"built": args[0].stats.misses > before}


def probes() -> List[Probe]:
    """Every wrapped public function and the span it records."""
    return [
        Probe(ContinuousBatchingScheduler, "step", "scheduler.step"),
        Probe(CausalLM, "log_probs_incremental", _model_pass, _shape),
        Probe(TransformerDecoder, "forward_incremental", _backbone_pass, _shape),
        Probe(Linear, "forward", "nn.linear", _linear),
        Probe(FeedForward, "forward", "nn.ffn"),
        Probe(MultiHeadAttention, "forward_incremental", "nn.attention"),
        Probe(F, "gelu", "nn.gelu"),
        Probe(F, "softmax", "nn.softmax"),
        Probe(F, "layer_norm", "nn.layer_norm"),
        Probe(LayerKVCache, "append", "kvcache.append", _append),
        Probe(LayerKVCache, "kv", "kvcache.gather", _gather_one),
        Probe(LayerKVCache, "kv_many", "kvcache.gather", _gather_many),
        Probe(PagePool, "decoded_many", "kvcache.pool_decode"),
        Probe(OVPairCodec, "encode_tensor_batch", "ovp.encode", _encode),
        Probe(OVPairCodec, "decode_tensor_batch", "ovp.decode", _decode),
        Probe(Sampler, "sample", "sampling.sample"),
        Probe(ServingStats, "record_decode_round", "stats.record", _round),
        Probe(SpeculativeDecoder, "plan", "spec.plan"),
        Probe(ModelRepository, "get", "repository.get", _built, _misses),
    ]


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def reduce(log, serve_root: int, pool_delta: Dict[str, int], prompt_tokens: int,
           num_layers: int, page_size: int) -> Dict[str, float]:
    """Per-layer metrics of the spans under ``serve_root`` (plus set-up builds)."""
    spans = log.spans
    root = roots(spans)
    selves = self_times(spans)
    busy: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    sums: Dict[str, float] = defaultdict(float)
    build_s = 0.0
    for index, span in enumerate(spans):
        if span.name == "repository.get" and span.attrs and span.attrs["built"]:
            build_s += span.duration
        if root[index] != serve_root:
            continue
        busy[span.name] += span.duration
        own[span.name] += selves[index]
        calls[span.name] += 1
        for key, value in (span.attrs or {}).items():
            if isinstance(value, (int, float)):
                sums[f"{span.name}.{key}"] += value
    rounds = calls["stats.record"]
    hits, misses = pool_delta["decode_hits"], pool_delta["decode_misses"]
    # Each attached page is counted once per layer for K and once for V.
    prefix_tokens = pool_delta["prefix_pages_attached"] / (2 * num_layers) * page_size
    return {
        "scheduler.steps": calls["scheduler.step"],
        "scheduler.step_s": busy["scheduler.step"],
        "scheduler.self_s": own["scheduler.step"],
        "scheduler.batch_mean": _share(sums["stats.record.active"], rounds),
        "scheduler.queue_depth_mean": _share(sums["stats.record.queued"], rounds),
        "model.prefill_s": busy["model.prefill"],
        "model.prefill_tokens": sums["model.prefill.tokens"],
        "model.decode_s": busy["model.decode"],
        "model.decode_rows": sums["model.decode.rows"],
        "model.verify_s": busy["model.verify"],
        "model.draft_s": busy["model.draft"],
        "nn.linear_s": busy["nn.linear"],
        "nn.linear_gflop": sums["nn.linear.gflop"],
        "nn.linear_gflops": _share(sums["nn.linear.gflop"], busy["nn.linear"]),
        "nn.ffn_s": busy["nn.ffn"],
        "nn.attention_s": busy["nn.attention"],
        "nn.gelu_s": busy["nn.gelu"],
        "nn.softmax_s": busy["nn.softmax"],
        "nn.layer_norm_s": busy["nn.layer_norm"],
        "kvcache.append_s": busy["kvcache.append"],
        "kvcache.append_tokens": sums["kvcache.append.tokens"],
        "kvcache.gather_s": busy["kvcache.gather"],
        "kvcache.gather_tokens": sums["kvcache.gather.tokens"],
        "kvcache.pool_decode_s": busy["kvcache.pool_decode"],
        "kvcache.pool_hit_rate": _share(hits, hits + misses),
        "kvcache.prefix_token_share": _share(prefix_tokens, prompt_tokens),
        "ovp.encode_s": busy["ovp.encode"],
        "ovp.encode_mb": sums["ovp.encode.bytes"] / 1e6,
        "ovp.decode_s": busy["ovp.decode"],
        "ovp.decode_mb": sums["ovp.decode.bytes"] / 1e6,
        "sampling.sample_s": busy["sampling.sample"],
        "stats.record_s": busy["stats.record"],
        "spec.plan_s": busy["spec.plan"],
        "spec.acceptance": _share(sums["stats.record.accepted"], sums["stats.record.proposed"]),
        "repository.build_s": build_s,
        "trace.unattributed_share": _share(own["engine.step"], busy["engine.step"]),
    }
