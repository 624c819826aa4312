"""The stored greedy reference every run's tokens are compared against.

``python3 servebench/reference.py`` (re)generates ``servebench/reference.json``
with a serial pass: one slot, no speculation, no chunked prefill, default
OVP weights and KV pages.  Multiturn conversations run turn by turn with
``share_generated_suffix=True`` as in the workload, each turn's prompt built
from the reference's own previous reply.  Only corpus sections whose digest
changed are regenerated.  Benchmark runs only read the file and never
regenerate it, so a change that alters tokens shows as lower
``token_agreement`` instead of moving the reference with it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List

if __package__ in (None, ""):
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from repro.serve import InferenceRequest, KVCacheConfig, ModelRepository, ServingEngine, WorkloadFamily

from servebench import workloads as W

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class ReferenceError(RuntimeError):
    """The stored reference is missing or does not match the corpus."""


def load(path: str = PATH) -> dict:
    """Read the reference and check every section was made from this corpus."""
    try:
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh)
    except OSError as exc:
        raise ReferenceError(f"cannot read reference {path}: {exc}") from exc
    stale = [name for name, digest in W.corpus_digests().items()
             if ref.get("digests", {}).get(name) != digest]
    if stale:
        raise ReferenceError(f"reference.json sections {stale} are stale; regenerate them")
    return ref


def expected_tokens(ref: dict, kind: str, key, max_new_tokens: int) -> List[int]:
    """The reference tokens a request of this corpus key should produce."""
    if kind == "short":
        return ref["short"][f"{key[0]}:{key[1]}"][:max_new_tokens]
    if kind == "doc":
        return ref["docs"][f"{key[0]}:{key[1]}"][:max_new_tokens]
    shape, variant, turn = key
    return ref["conversations"][f"{shape}:{variant}"][turn]


def _generate(engine: ServingEngine, prompt, max_new_tokens: int) -> List[int]:
    request = InferenceRequest(W.MODEL, WorkloadFamily.LM, prompt, max_new_tokens=max_new_tokens)
    (result,) = engine.serve([request])
    tokens = [int(t) for t in result.output.token_ids]
    if result.output.finish_reason != "length" or len(tokens) != max_new_tokens:
        raise ReferenceError(f"serial pass ended early: {result.output.finish_reason}")
    return tokens


def _serial(repository: ModelRepository, **kwargs) -> ServingEngine:
    return ServingEngine(repository, num_slots=1, kv_cache_config=KVCacheConfig(), **kwargs)


def build_short(repository) -> Dict[str, List[int]]:
    engine = _serial(repository)
    return {f"{n}:{v}": _generate(engine, W.short_prompt(n, v), W.SHORT_REFERENCE_TOKENS)
            for n, v in W.short_keys()}


def build_docs(repository) -> Dict[str, List[int]]:
    engine = _serial(repository)
    return {f"{i}:{v}": _generate(engine, W.document(i, v), W.DOC_NEW_TOKENS)
            for i, v in W.doc_keys()}


def build_conversations(repository) -> Dict[str, List[List[int]]]:
    engine = _serial(repository, share_generated_suffix=True)
    system = W.system_prompt()
    out = {}
    for s, v in W.conversation_keys():
        conv = W.conversation(s, v)
        prompt, reply, replies = None, None, []
        for turn in range(len(conv.segments)):
            prompt = W.turn_prompt(system, conv, turn, prompt, reply)
            reply = _generate(engine, prompt, conv.replies[turn])
            replies.append(reply)
        out[f"{s}:{v}"] = replies
    return out


SECTIONS = {"short": build_short, "docs": build_docs, "conversations": build_conversations}


def main() -> None:
    try:
        with open(PATH, encoding="utf-8") as fh:
            ref = json.load(fh)
    except OSError:
        ref = {}
    ref.setdefault("digests", {})
    ref["model"] = W.MODEL
    repository = ModelRepository()
    for name, digest in W.corpus_digests().items():
        if ref["digests"].get(name) == digest and name in ref:
            continue
        started = time.perf_counter()
        ref[name] = SECTIONS[name](repository)
        ref["digests"][name] = digest
        print(f"{name}: regenerated in {time.perf_counter() - started:.0f} s", flush=True)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
