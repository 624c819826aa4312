"""The three workloads: fixed corpora, schedule templates and engine settings.

A workload's *shape* is a fixed template: when each request arrives, what
kind it is and how long its prompt and reply are.  ``--seed`` fills the
template with content, choosing for every slot one of several corpus prompts
of that length.  Different seeds therefore send different token ids, which
moves speculative acceptance and every generated token, while the work each
run carries and its arrival pattern stay fixed.  A run holds only 30-36
requests; drawing a fresh arrival pattern per seed moved the latency
percentiles by a factor of two between seeds, which would hide any
regression a bound could catch.

Every prompt comes from a corpus built from ``CORPUS_SEED``, so the greedy
reference (``servebench/reference.json``) covers every seed.  Open-loop
templates are stratified: ``n`` requests take ``n`` evenly spaced lengths
and the ``n`` quantiles of the exponential distribution as inter-arrival
gaps, in an order fixed per workload, so arrivals are one Poisson-shaped
pattern at the workload's rate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serve import KVCacheConfig, SpeculativeConfig

MODEL = "gpt2-xl-scaled"
VOCAB = 96
NUM_SLOTS = 8
CORPUS_SEED = 20230617

#: Short prompts: chat requests and longdoc questions.  The reference holds
#: ``SHORT_REFERENCE_TOKENS`` greedy tokens per prompt; a request asking for
#: fewer is checked against the prefix.
SHORT_LENGTHS = (16, 64)
SHORT_VARIANTS = 4
SHORT_REFERENCE_TOKENS = 64
CHAT_OUTPUT = (16, 64)

#: Longdoc documents (lengths on a page-aligned grid) and their answers.
DOC_LENGTHS = tuple(range(512, 897, 16))
DOC_VARIANTS = 2
DOC_NEW_TOKENS = 16
QUESTION_NEW_TOKENS = 32
DOC_SHARE = 4  # one request in DOC_SHARE is a document

#: Multiturn conversations over one shared system prompt: ``CONVERSATION_SHAPES``
#: fixed shapes (turn count, per-turn new tokens and reply lengths), each
#: with ``CONVERSATION_VARIANTS`` token contents.
SYSTEM_PROMPT_TOKENS = 256
CONVERSATION_SHAPES = 9
CONVERSATION_VARIANTS = 4
TURNS = (3, 5)
TURN_NEW_TOKENS = (16, 64)
TURN_REPLY_TOKENS = (16, 32)

#: Fixes each workload's template; ``--seed`` never changes it.
TEMPLATE_SEED = 7

#: Speculation recipe of ``benchmarks/bench_scaled_decode.py`` (the scaled
#: tier's calibrated 1-layer draft with single-token depth).
SPEC = SpeculativeConfig(
    draft_layers=1,
    num_speculative_tokens=1,
    feature_width=0,
    calibration_sequences=24,
    calibration_tokens=40,
    calibration_prompt_len=8,
    first_margin_threshold=0.25,
    margin_threshold=1.0,
)

#: Page-aligned prefill chunk for longdoc (a multiple of the default page).
PREFILL_CHUNK_TOKENS = 64


@dataclass(frozen=True)
class Workload:
    """One named traffic mix and the engine that serves it."""

    name: str
    why: str
    loop: str                      # "open" (Poisson schedule) or "closed"
    #: Requests (multiturn: conversations) per second of ``--seconds``: the
    #: open loop's arrival rate, or the size of a closed loop's fixed work.
    rate: float = 0.0
    users: int = 0                 # closed loop: concurrent users
    ttft_limit_ms: float = 0.0     # SLO limit on time to first token
    tpot_limit_ms: float = 0.0     # SLO limit on time per output token
    engine: Dict[str, object] = field(default_factory=dict)

    def engine_kwargs(self) -> Dict[str, object]:
        kwargs = dict(num_slots=NUM_SLOTS, max_batch_size=NUM_SLOTS,
                      kv_cache_config=KVCacheConfig())
        kwargs.update(self.engine)
        return kwargs


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="chat",
            why="open loop of short unique prompts and replies with speculation on: "
                "decode-bound, fixed per-round cost dominates; bypass case for prefill, "
                "KV-read and prefix changes",
            loop="open",
            rate=1.2,
            ttft_limit_ms=1000.0,
            tpot_limit_ms=150.0,
            engine={"speculative": SPEC},
        ),
        Workload(
            name="longdoc",
            why="closed loop, 10 users; every fourth request a 512-896 token document "
                "behind chunked prefill: prefill-bound and write-heavy on the paged OVP "
                "KV cache",
            loop="closed",
            rate=1.2,
            users=10,
            ttft_limit_ms=6000.0,
            tpot_limit_ms=300.0,
            engine={"prefill_chunk_tokens": PREFILL_CHUNK_TOKENS},
        ),
        Workload(
            name="multiturn",
            why="closed loop of 3-5 turn conversations over a shared system prompt, "
                "more users than slots: read-heavy on KV pages and the prefix index",
            loop="closed",
            rate=0.36,
            users=9,
            ttft_limit_ms=8000.0,
            tpot_limit_ms=300.0,
            engine={"share_generated_suffix": True},
        ),
    )
}


# --------------------------------------------------------------------------- #
# Fixed corpora
# --------------------------------------------------------------------------- #
def _tokens(key: Tuple[int, ...], length: int) -> np.ndarray:
    return np.random.default_rng((CORPUS_SEED,) + key).integers(0, VOCAB, size=length)


def short_prompt(length: int, variant: int) -> np.ndarray:
    """Corpus short prompt ``variant`` of ``length`` tokens."""
    return _tokens((1, length, variant), length)


def document(index: int, variant: int) -> np.ndarray:
    """Corpus document ``variant`` at ``DOC_LENGTHS[index]`` tokens."""
    return _tokens((2, index, variant), DOC_LENGTHS[index])


def system_prompt() -> np.ndarray:
    return _tokens((3,), SYSTEM_PROMPT_TOKENS)


@dataclass(frozen=True)
class Conversation:
    """A corpus conversation: per-turn new user tokens and reply lengths."""

    key: Tuple[int, int]                 # (shape, variant)
    segments: Tuple[np.ndarray, ...]
    replies: Tuple[int, ...]


def conversation(shape: int, variant: int) -> Conversation:
    """Conversation ``variant`` of ``shape``: turns cycle through ``TURNS``."""
    rng = np.random.default_rng((CORPUS_SEED, 4, shape))
    turns = TURNS[0] + shape % (TURNS[1] - TURNS[0] + 1)
    lengths = rng.integers(TURN_NEW_TOKENS[0], TURN_NEW_TOKENS[1] + 1, size=turns)
    replies = rng.integers(TURN_REPLY_TOKENS[0], TURN_REPLY_TOKENS[1] + 1, size=turns)
    segments = tuple(_tokens((5, shape, variant, t), int(n)) for t, n in enumerate(lengths))
    return Conversation((shape, variant), segments, tuple(int(r) for r in replies))


def short_keys() -> List[Tuple[int, int]]:
    lo, hi = SHORT_LENGTHS
    return [(n, v) for n in range(lo, hi + 1) for v in range(SHORT_VARIANTS)]


def doc_keys() -> List[Tuple[int, int]]:
    return [(i, v) for i in range(len(DOC_LENGTHS)) for v in range(DOC_VARIANTS)]


def conversation_keys() -> List[Tuple[int, int]]:
    return [(s, v) for s in range(CONVERSATION_SHAPES) for v in range(CONVERSATION_VARIANTS)]


def corpus_digests() -> Dict[str, str]:
    """Hash of each corpus section, so a stale reference section is detected."""
    parts = {
        "short": [short_prompt(n, v).tobytes() for n, v in short_keys()],
        "docs": [document(i, v).tobytes() for i, v in doc_keys()],
        "conversations": [system_prompt().tobytes()],
    }
    for s, v in conversation_keys():
        conv = conversation(s, v)
        for segment, reply in zip(conv.segments, conv.replies):
            parts["conversations"] += [segment.tobytes(), reply.to_bytes(4, "little")]
    return {name: hashlib.sha256(b"".join(chunks)).hexdigest() for name, chunks in parts.items()}


# --------------------------------------------------------------------------- #
# Seeded schedules
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it is due and what it asks."""

    due: float                  # seconds after the schedule starts
    kind: str                   # "short" or "doc"
    key: Tuple[int, int]        # corpus key
    prompt: np.ndarray
    max_new_tokens: int


def stratified(low: int, high: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` integers spread evenly over ``[low, high]``, in seeded order."""
    span = high - low + 1
    values = low + ((2 * np.arange(count) + 1) * span) // (2 * count)
    return rng.permutation(values)


def poisson_gaps(count: int, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Exponential-quantile inter-arrival gaps summing to ``seconds``."""
    q = (np.arange(count) + 0.5) / count
    gaps = rng.permutation(-np.log1p(-q))
    return gaps * (seconds / gaps.sum())


def _pick_variants(lengths, variants: int, rng: np.random.Generator) -> List[int]:
    """A distinct variant for every repeated length (prompts stay unique)."""
    order: Dict[int, List[int]] = {}
    picks = []
    for length in lengths:
        pool = order.get(int(length))
        if pool is None:
            pool = order[int(length)] = list(rng.permutation(variants))
        if not pool:
            raise ValueError(f"corpus has too few variants of length {length}")
        picks.append(int(pool.pop()))
    return picks


def schedule(workload: Workload, seed: int, seconds: float) -> List[Arrival]:
    """``workload``'s request template over ``seconds``, filled for ``seed``.

    Closed loops send the requests in this order and ignore ``due``.
    """
    shape = np.random.default_rng((TEMPLATE_SEED, 11, list(WORKLOADS).index(workload.name)))
    content = np.random.default_rng((seed, 11))
    count = max(4, int(round(workload.rate * seconds)))
    dues = np.cumsum(poisson_gaps(count, seconds, shape))
    if workload.name == "chat":
        kinds = ["short"] * count
    elif workload.name == "longdoc":
        kinds = ["doc" if i % DOC_SHARE == DOC_SHARE - 1 else "short" for i in range(count)]
    else:
        raise ValueError(f"{workload.name!r} has no request template")
    shorts = [i for i, k in enumerate(kinds) if k == "short"]
    docs = [i for i, k in enumerate(kinds) if k == "doc"]
    plan: Dict[int, Tuple[str, Tuple[int, int], np.ndarray, int]] = {}
    lengths = stratified(*SHORT_LENGTHS, len(shorts), shape)
    if workload.name == "chat":
        outputs = stratified(*CHAT_OUTPUT, len(shorts), shape)
    else:
        outputs = np.full(len(shorts), QUESTION_NEW_TOKENS)
    variants = _pick_variants(lengths, SHORT_VARIANTS, content)
    for i, n, v, out in zip(shorts, lengths, variants, outputs):
        plan[i] = ("short", (int(n), v), short_prompt(int(n), v), int(out))
    if docs:
        indices = stratified(0, len(DOC_LENGTHS) - 1, len(docs), shape)
        variants = _pick_variants(indices, DOC_VARIANTS, content)
        for i, d, v in zip(docs, indices, variants):
            plan[i] = ("doc", (int(d), v), document(int(d), v), DOC_NEW_TOKENS)
    return [Arrival(float(dues[i]), *plan[i]) for i in range(count)]


def split_schedule(arrivals: List[Arrival], seconds: float, parts: int) -> List[List[Arrival]]:
    """Cut a schedule over ``seconds`` into ``parts`` equal windows, each rebased to 0."""
    width = seconds / parts
    windows: List[List[Arrival]] = [[] for _ in range(parts)]
    for a in arrivals:
        k = min(parts - 1, int(a.due // width))
        windows[k].append(Arrival(a.due - k * width, a.kind, a.key, a.prompt, a.max_new_tokens))
    return windows


def conversations(workload: Workload, seed: int, seconds: float) -> List[Conversation]:
    """The conversations a multiturn run serves, in hand-out order.

    A fixed amount of work: ``seconds`` times the workload's nominal pace,
    in conversations, cycling through the fixed shapes; ``seed`` picks each
    conversation's content variant.
    """
    content = np.random.default_rng((seed, 12))
    count = max(workload.users, int(round(workload.rate * seconds)))
    shapes = [i % CONVERSATION_SHAPES for i in range(count)]
    variants = _pick_variants(shapes, CONVERSATION_VARIANTS, content)
    return [conversation(s, v) for s, v in zip(shapes, variants)]


def closed_jobs(workload: Workload, seed: int, seconds: float) -> List[object]:
    """What a closed-loop run's users work through, in hand-out order."""
    if workload.name == "multiturn":
        return conversations(workload, seed, seconds)
    return schedule(workload, seed, seconds)


def turn_prompt(system: np.ndarray, conv: Conversation, turn: int,
                history: Optional[np.ndarray], reply: Optional[List[int]]) -> np.ndarray:
    """Turn ``turn``'s prompt: previous prompt + its reply + new user tokens."""
    if turn == 0:
        return np.concatenate([system, conv.segments[0]])
    return np.concatenate([history, np.asarray(reply, dtype=np.int64), conv.segments[turn]])
