"""Serve one workload on ``gpt2-xl-scaled`` and print its metrics.

Usage (from the repository root)::

    python3 servebench/run.py --workload chat --seed 1 --seconds 25 --trace 0

``--trace 0`` sets up the engine three times (the median is ``setup_s``),
serves the workload untraced (an open loop one third of its schedule after
each set-up, a closed loop all of it after the last), checks every output
and prints the end-to-end metrics.  ``--trace 1`` serves the same schedule
twice on fresh engines, once plain and once with every probe of
:mod:`servebench.layers` installed, and prints the per-layer metrics; the
span log is written as JSONL under ``servebench/out/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
if __package__ in (None, ""):
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from repro.serve import (
    InferenceRequest,
    ModelRepository,
    ServingEngine,
    SpeculativeDecoder,
    WorkloadFamily,
)

from servebench import layers, loadgen, metrics, reference, spans
from servebench import workloads as W

OUT_DIR = os.path.join(_HERE, "out")
SETUP_REPEATS = 3
#: A run whose tokens match the reference less than this is incorrect.
AGREEMENT_FLOOR = 0.95


class Setup:
    """A built repository (and calibrated draft) that engines are made from."""

    def __init__(self, workload: W.Workload) -> None:
        self.workload = workload
        self.repository = ModelRepository()
        entry = self.repository.get(W.MODEL, WorkloadFamily.LM)
        if entry.model.config.vocab_size != W.VOCAB:
            raise RuntimeError(f"{W.MODEL} vocab {entry.model.config.vocab_size} != {W.VOCAB}")
        self.num_layers = entry.model.config.num_layers
        kwargs = workload.engine_kwargs()
        self.decoder = None
        if kwargs.get("speculative") is not None:
            self.decoder = SpeculativeDecoder(
                self.repository, kwargs["speculative"],
                target_cache_config=kwargs["kv_cache_config"],
            )
            self.decoder.warm(W.MODEL)

    def engine(self) -> ServingEngine:
        """A fresh engine on this repository, warmed on non-corpus prompts."""
        kwargs = self.workload.engine_kwargs()
        if self.decoder is not None:
            kwargs["speculative"] = self.decoder
        engine = ServingEngine(self.repository, **kwargs)
        rng = np.random.default_rng((W.CORPUS_SEED, 99))
        warm = [InferenceRequest(W.MODEL, WorkloadFamily.LM, rng.integers(0, W.VOCAB, size=n),
                                 max_new_tokens=8)
                for n in (24, 40, 2 * W.PREFILL_CHUNK_TOKENS + 8)]
        if any(r.output.finish_reason != "length" for r in engine.serve(warm)):
            raise RuntimeError("warm-up requests did not complete")
        return engine


def timed_setup(workload: W.Workload):
    """A ready engine and the seconds its full set-up took."""
    start = time.perf_counter()
    engine = Setup(workload).engine()
    return engine, time.perf_counter() - start


def serve(workload: W.Workload, engine, seed: int, seconds: float, log=None):
    if workload.loop == "open":
        return loadgen.run_open(engine, W.schedule(workload, seed, seconds), log=log)
    return loadgen.run_closed(engine, workload.users, W.closed_jobs(workload, seed, seconds),
                             log=log)


def untraced_run(workload: W.Workload, seed: int, seconds: float):
    """``SETUP_REPEATS`` timed set-ups with the serving between them.

    An open loop serves one window of its schedule on each set-up's engine,
    so its timings sample the whole run instead of its last stretch: the
    host's speed drifts over tens of seconds, and one slow spell moved a
    whole contiguous run.  A closed loop needs all its work at once for its
    queue to form, so it is served on the last engine.  Returns the served
    passes as one and the set-up times.
    """
    if workload.loop == "open":
        windows = W.split_schedule(W.schedule(workload, seed, seconds), seconds, SETUP_REPEATS)
    else:
        windows = [None] * (SETUP_REPEATS - 1) + [W.closed_jobs(workload, seed, seconds)]
    times, passes, engine = [], [], None
    for window in windows:
        engine = None
        gc.collect()
        engine, elapsed = timed_setup(workload)
        times.append(elapsed)
        if window is None:
            continue
        if workload.loop == "open":
            passes.append(loadgen.run_open(engine, window))
        else:
            passes.append(loadgen.run_closed(engine, workload.users, window))
    return loadgen.combine(passes), times


def expected(ref, record):
    return reference.expected_tokens(ref, record.kind, record.key, record.max_new_tokens)


def add_request_spans(log, root: int, records) -> None:
    """One span per request (due to last token) with queue/wait/stream parts."""
    for r in records:
        if not r.token_times:
            continue
        parent = log.add("request", r.due, r.token_times[-1], root, r.request_id,
                         {"kind": r.kind, "tokens": len(r.tokens)})
        log.add("request.queue", r.due, r.submitted, parent, r.request_id)
        log.add("request.first_token", r.submitted, r.token_times[0], parent, r.request_id)
        log.add("request.stream", r.token_times[0], r.token_times[-1], parent, r.request_id)


def traced_run(workload: W.Workload, seed: int, seconds: float, ref):
    """Plain pass, then probed pass; returns (served, checks, per-layer metrics)."""
    log = spans.SpanLog()
    probes = layers.probes()
    originals = [vars(p.owner)[p.attr] for p in probes]
    with spans.install(log, probes):
        setup_root = log.open("setup")
        setup = Setup(workload)
        log.close(setup_root)
    plain = serve(workload, setup.engine(), seed, seconds)
    engine = setup.engine()
    pool_before = engine.page_pool.counters()
    with spans.install(log, probes):
        serve_root = log.open("serve")
        traced = serve(workload, engine, seed, seconds, log=log)
        log.close(serve_root)
    leftover = [p.attr for p, o in zip(probes, originals) if vars(p.owner)[p.attr] is not o]
    if leftover:
        raise RuntimeError(f"probes left installed: {leftover}")
    pool_after = engine.page_pool.counters()
    add_request_spans(log, serve_root, traced.records)
    delta = {k: pool_after[k] - pool_before[k] for k in pool_after}
    prompt_tokens = sum(r.prompt_len for r in traced.records)
    result = layers.reduce(log, serve_root, delta, prompt_tokens, setup.num_layers,
                           engine.kv_cache_config.page_size)
    lags = [r.submitted - r.due for r in plain.records]
    result["loadgen.lag_tail_ms"] = 1e3 * metrics.percentile(
        lags, metrics.highest_percentile(len(lags)))
    result["trace.overhead_share"] = traced.busy_s / plain.busy_s
    os.makedirs(OUT_DIR, exist_ok=True)
    log.write_jsonl(os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.jsonl"))
    checks = [metrics.check_outputs(p.records, ref, W.VOCAB, expected) for p in (plain, traced)]
    return plain, traced, checks, result


def print_table(title: str, declared, values, notes) -> None:
    print(title)
    for name, unit, _ in declared:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {values[name]:>14.6f} {unit}{note}")


def write_result(workload, args, result, notes, fingerprint, check, records) -> None:
    """Keep the full result, with the machine and every request, under ``out/``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    requests = [
        {"kind": r.kind, "key": list(r.key), "prompt": r.prompt_len, "new": r.max_new_tokens,
         "due": r.due, "lag": r.submitted - r.due,
         "ttft": r.token_times[0] - r.due if r.token_times else None,
         "last": r.token_times[-1] - r.due if r.token_times else None,
         "finish": r.finish_reason, "error": r.error}
        for r in records
    ]
    path = os.path.join(OUT_DIR, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fingerprint": fingerprint, "seconds": args.seconds, "result": result,
                   "notes": notes, "differing": check["differing"], "requests": requests},
                  fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = W.WORKLOADS[args.workload]
    ref = reference.load()
    fingerprint = metrics.fingerprint()
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))

    if args.trace:
        plain, traced, checks, values = traced_run(workload, args.seed, args.seconds, ref)
        declared, records = layers.PER_LAYER, plain.records + traced.records
        notes = {}
        check = {
            "failed": sum(c["failed"] for c in checks),
            "agreement": min(c["agreement"] for c in checks),
            "differing": checks[0]["differing"] + checks[1]["differing"],
        }
    else:
        served, times = untraced_run(workload, args.seed, args.seconds)
        check = metrics.check_outputs(served.records, ref, W.VOCAB, expected)
        values, notes = metrics.end_to_end(served, check, times, workload.ttft_limit_ms / 1e3,
                                           workload.tpot_limit_ms / 1e3)
        declared, records = metrics.END_TO_END, served.records
        print(f"setup runs (s): {', '.join(f'{t:.3f}' for t in times)}")
        print(f"served {served.end - served.start:.2f} s wall, engine busy "
              f"{served.busy_s / (served.end - served.start):.1%} over {served.steps} steps")

    attempted, failed = len(records), check["failed"]
    print(f"requests_sent {attempted}  requests_failed {failed}  "
          f"failed_share {failed / attempted:.4f}")
    for diff in check["differing"]:
        print("differs from reference: " + json.dumps(diff))
    print_table(f"{workload.name} seed={args.seed} seconds={args.seconds:g} "
                f"trace={args.trace}", declared, values, notes)
    correct = failed == 0 and check["agreement"] >= AGREEMENT_FLOOR
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit, _ in declared},
    }
    write_result(workload, args, result, notes, fingerprint, check, records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
