"""Percentiles, end-to-end metrics and the machine fingerprint."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import statistics
from typing import Dict, List, Optional, Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values``.

    Refuses (raises :class:`TooFewSamples`) when fewer than ``MIN_BEYOND``
    samples lie beyond it, because such a tail is one or two outliers.
    """
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} of {n} samples leaves {max(0, n - rank)} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return float(sorted(values)[rank - 1])


def highest_percentile(n: int) -> Optional[int]:
    """The highest whole percentile ``percentile`` accepts for ``n`` samples."""
    for p in range(99, 0, -1):
        if n - max(1, math.ceil(p / 100.0 * n)) >= MIN_BEYOND:
            return p
    return None


#: (name, unit, better) of every end-to-end metric, in print order.  A
#: ``_tail`` timing is the highest percentile its sample supports (see
#: :func:`highest_percentile`); each run prints which one it is.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ttft_p50_ms", "ms", "lower"),
    ("ttft_tail_ms", "ms", "lower"),
    ("tpot_p50_ms", "ms", "lower"),
    ("tpot_tail_ms", "ms", "lower"),
    ("itl_tail_ms", "ms", "lower"),
    ("output_tok_s", "tok/s", "higher"),
    ("slo_attainment", "share", "higher"),
    ("token_agreement", "share", "higher"),
    ("rss_peak_mb", "MiB", "lower"),
)


def request_timings(records) -> Dict[str, List[float]]:
    """TTFT, per-request TPOT and inter-token gaps, in seconds."""
    ttft, tpot, itl = [], [], []
    for r in records:
        if not r.token_times:
            continue
        ttft.append(r.token_times[0] - r.due)
        if len(r.token_times) > 1:
            tpot.append((r.token_times[-1] - r.token_times[0]) / (len(r.token_times) - 1))
            itl.extend(np.diff(r.token_times).tolist())
    return {"ttft": ttft, "tpot": tpot, "itl": itl}


def check_outputs(records, reference, vocab: int, expected) -> Dict[str, object]:
    """Structural checks plus token agreement with the greedy reference.

    A request passes when it ended with ``finish_reason="length"`` holding
    exactly ``max_new_tokens`` in-vocab ids.  Agreement is the share of
    reference positions whose generated token matches; a failed request
    matches nothing.
    """
    failed, matched, total, differing = 0, 0, 0, []
    for r in records:
        want = expected(reference, r)
        total += len(want)
        ok = (
            r.error is None
            and r.finish_reason == "length"
            and len(r.tokens) == r.max_new_tokens
            and all(0 <= t < vocab for t in r.tokens)
        )
        if not ok:
            failed += 1
            continue
        same = sum(1 for a, b in zip(r.tokens, want) if a == b)
        matched += same
        if same != len(want):
            first = next(i for i, (a, b) in enumerate(zip(r.tokens, want)) if a != b)
            differing.append({"request": r.request_id, "kind": r.kind, "key": list(r.key),
                              "first_diff": first, "matched": same, "of": len(want)})
    return {
        "failed": failed,
        "agreement": matched / total if total else 0.0,
        "differing": differing,
    }


def end_to_end(served, checks, setup_times: List[float], ttft_limit_s: float,
               tpot_limit_s: float):
    """End-to-end metric values, and which percentile of how many samples each is."""
    records = served.records
    timings = request_timings(r for r in records if r.error is None)
    values: Dict[str, float] = {}
    notes: Dict[str, str] = {}
    for kind in ("ttft", "tpot", "itl"):
        samples = timings[kind]
        tail = highest_percentile(len(samples))
        points = [("tail", tail)] if kind == "itl" else [("p50", 50), ("tail", tail)]
        for label, p in points:
            if p is None:
                raise TooFewSamples(f"{kind}: {len(samples)} samples support no percentile")
            values[f"{kind}_{label}_ms"] = 1e3 * percentile(samples, p)
            notes[f"{kind}_{label}_ms"] = f"p{p} of {len(samples)}"
    met = 0
    for r in records:
        if r.error is None and r.finish_reason == "length" and len(r.token_times) > 1:
            ttft = r.token_times[0] - r.due
            tpot = (r.token_times[-1] - r.token_times[0]) / (len(r.token_times) - 1)
            met += ttft <= ttft_limit_s and tpot <= tpot_limit_s
    values.update({
        "setup_s": statistics.median(setup_times),
        "output_tok_s": sum(len(r.tokens) for r in records) / (served.end - served.start),
        "slo_attainment": met / len(records),
        "token_agreement": checks["agreement"],
        "rss_peak_mb": rss_peak_mb(),
    })
    notes["setup_s"] = f"median of {len(setup_times)}"
    notes["slo_attainment"] = f"{met} of {len(records)} sent"
    return values, notes


def rss_peak_mb() -> float:
    """Peak resident set of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas_threads() -> Optional[int]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def fingerprint() -> Dict[str, object]:
    """The machine facts every result is recorded with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "openblas": blas_version,
        "openblas_threads": _openblas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
