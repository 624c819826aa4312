"""Benchmark: OVP-paged KV caches, incremental decode, continuous batching.

Three perf/memory properties guard the LM serving stack:

* incremental decode through a packed KV cache must beat full-prefix
  recomputation on long-prefix generation;
* a (mostly sealed) 4-bit OVP cache must be at least 4x smaller than the
  fp32 cache holding the same tokens;
* slot-level continuous batching must sustain higher generation throughput
  than whole-batch release on a mixed-length request stream (the baseline
  is driven by the caller: each wave of ``max_batch_size`` requests is
  served to completion before the next is submitted).
"""

import numpy as np

from repro.serve import (
    InferenceRequest,
    KVCacheConfig,
    ModelRepository,
    ServingEngine,
    WorkloadFamily,
)
from repro.serve.kvcache import cache_for_model

MODEL = "gpt2-xl"


def _generate_full_recompute(model, prompt, new_tokens):
    tokens = list(prompt)
    for _ in range(new_tokens):
        log_probs = model.log_probs(np.asarray(tokens)[None])[0, -1]
        tokens.append(int(np.argmax(log_probs)))
    return tokens[len(prompt):]


def _generate_incremental(model, prompt, new_tokens, config):
    cache = cache_for_model(model, config)
    log_probs = model.log_probs_incremental(np.asarray(prompt)[None], [cache])
    tokens = [int(np.argmax(log_probs[0, -1]))]
    for _ in range(new_tokens - 1):
        log_probs = model.log_probs_incremental(np.array([[tokens[-1]]]), [cache])
        tokens.append(int(np.argmax(log_probs[0, -1])))
    return tokens, cache


def test_bench_incremental_decode_beats_full_recompute(run_once, best_of, benchmark):
    repository = ModelRepository(bits=4)
    model = repository.get(MODEL, WorkloadFamily.LM).model
    prompt = np.random.default_rng(0).integers(0, 96, size=24)
    new_tokens = 32  # long prefix: sequence grows to 56 of 64 positions
    config = KVCacheConfig(bits=4, page_size=8)

    full_seconds = best_of(
        lambda: _generate_full_recompute(model, prompt, new_tokens), repeats=3
    )
    incremental_seconds = best_of(
        lambda: _generate_incremental(model, prompt, new_tokens, config), repeats=3
    )
    packed_tokens, cache = run_once(
        _generate_incremental, model, prompt, new_tokens, config
    )
    # The fp32-mode cache must reproduce full recompute token for token.
    fp_tokens, _ = _generate_incremental(
        model, prompt, new_tokens, KVCacheConfig(quantize=False)
    )
    assert fp_tokens == _generate_full_recompute(model, prompt, new_tokens)
    assert len(packed_tokens) == new_tokens

    speedup = full_seconds / incremental_seconds
    benchmark.extra_info.update(
        {
            "full_recompute_ms": round(full_seconds * 1e3, 2),
            "incremental_ms": round(incremental_seconds * 1e3, 2),
            "incremental_speedup": round(speedup, 2),
            "final_seq_len": int(cache.seq_len),
        }
    )
    assert speedup > 1.3, f"incremental decode only {speedup:.2f}x faster"


def test_bench_packed_cache_4x_smaller_than_fp32(run_once, benchmark):
    repository = ModelRepository(bits=4)
    model = repository.get(MODEL, WorkloadFamily.LM).model
    prompt = np.random.default_rng(1).integers(0, 96, size=32)
    config = KVCacheConfig(bits=4, page_size=8)

    # 32 prompt + 24 fed tokens = 56 cached steps = 7 fully sealed pages.
    _, cache = run_once(_generate_incremental, model, prompt, 25, config)
    summary = cache.memory_summary()
    compression = cache.compression_ratio
    benchmark.extra_info.update(
        {
            "kv_fp32_bytes": summary["kv_fp32_bytes"],
            "kv_cache_bytes": summary["kv_cache_bytes"],
            "kv_compression": round(compression, 2),
            "sealed_pages": summary["sealed_pages"],
        }
    )
    # 56 cached steps: 56 sealed (page 8) at 0.5 B/elem -> 8x; the bound
    # asserts >= 4x so a partially open page never flakes the build.
    assert summary["kv_cache_bytes"] * 4 <= summary["kv_fp32_bytes"], (
        f"packed KV cache only {compression:.2f}x smaller than fp32"
    )


def test_bench_continuous_beats_whole_batch_release(
    run_once, best_of, benchmark, serve_trajectory
):
    # Mixed-length stream: every wave of short generations rides with one
    # straggler, the worst case for whole-batch release.
    gens = [48, 4, 4, 4] * 4
    rng = np.random.default_rng(2)
    prompts = [rng.integers(0, 96, size=8) for _ in gens]
    repository = ModelRepository(bits=4)
    repository.get(MODEL, WorkloadFamily.LM)
    kv_config = KVCacheConfig(bits=4, page_size=8)

    def requests():
        return [
            InferenceRequest(MODEL, WorkloadFamily.LM, p, max_new_tokens=g)
            for p, g in zip(prompts, gens)
        ]

    def engine():
        return ServingEngine(
            repository=repository, max_batch_size=4, max_wait=0.0,
            kv_cache_config=kv_config,
        )

    def serve_in_waves(stream):
        # Whole-batch release: a wave's slots stay idle until its straggler
        # finishes, because the next wave is only submitted after that.
        results = []
        for i in range(0, len(stream), 4):
            results.extend(whole_batch.serve(stream[i:i + 4]))
        return results

    continuous, whole_batch = engine(), engine()
    continuous_seconds = best_of(lambda: continuous.serve(requests()), repeats=3)
    whole_seconds = best_of(lambda: serve_in_waves(requests()), repeats=3)
    results = run_once(continuous.serve, requests())

    generated = sum(len(r.output.token_ids) for r in results)
    assert generated == sum(gens)
    continuous_tps = generated / continuous_seconds
    whole_tps = generated / whole_seconds
    summary = continuous.stats.summary()
    benchmark.extra_info.update(
        {
            "continuous_tokens_per_s": round(continuous_tps, 0),
            "whole_batch_tokens_per_s": round(whole_tps, 0),
            "continuous_speedup": round(continuous_tps / whole_tps, 2),
            "mean_slot_occupancy": round(summary.mean_slot_occupancy, 3),
            "kv_compression_at_peak": round(summary.kv_compression, 2),
        }
    )
    serve_trajectory(
        "continuous_batching",
        tokens_per_second=round(continuous_tps, 0),
        whole_batch_tokens_per_second=round(whole_tps, 0),
        pool_hit_rate=round(summary.pool_hit_rate, 4),
        mean_slot_occupancy=round(summary.mean_slot_occupancy, 3),
    )
    assert continuous_tps > whole_tps, (
        f"continuous batching {continuous_tps:.0f} tok/s did not beat "
        f"whole-batch release {whole_tps:.0f} tok/s"
    )
