"""Multi-head attention for the NumPy transformer substrate."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Linear
from repro.nn.module import Module

__all__ = [
    "AttendScratch",
    "MultiHeadAttention",
    "attend_padding_waste",
    "bucket_by_length",
]

#: Smallest ragged-attend bucket: slots shorter than this share one bucket,
#: so a round never fragments into per-slot GEMMs at small cached lengths.
MIN_ATTEND_BUCKET = 16


class _NullSpan:
    """No-op context manager so the untraced bucket loop stays branch-free."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_BUCKET_SPAN = _NullSpan()


def bucket_by_length(
    lengths: Sequence[int], min_bucket: int = MIN_ATTEND_BUCKET
) -> List[Tuple[List[int], int]]:
    """Group slot indices into power-of-two length buckets.

    Slots land in the bucket of the next power of two at or above their
    cached length (clamped below at ``min_bucket``); each bucket is then
    padded only to its own longest member.  Uniform lengths therefore
    collapse to a single bucket padded exactly like the all-slots padded
    path, while mixed lengths split so short slots stop paying the longest
    slot's padded GEMM.

    Returns ``[(slot_indices, pad_len), ...]`` ordered by bucket capacity,
    indices in slot order.  Shared by the bucketed attend kernel and the
    padding-waste accounting, so measurements match what actually ran.
    """
    buckets: dict = {}
    for index, length in enumerate(lengths):
        length = int(length)
        capacity = max(int(min_bucket), 1 << max(length - 1, 0).bit_length())
        buckets.setdefault(capacity, []).append(index)
    return [
        (indices, max(int(lengths[i]) for i in indices))
        for _, indices in sorted(buckets.items())
    ]


def attend_padding_waste(
    lengths: Sequence[int], min_bucket: int = MIN_ATTEND_BUCKET
) -> Tuple[float, float]:
    """Fraction of padded K/V cells that are masked-out waste.

    Returns ``(padded_waste, bucketed_waste)``: the single-bucket padded
    attend pads every slot to the round's longest sequence, the bucketed
    attend pads each bucket to its own longest member.
    """
    useful = float(sum(int(n) for n in lengths))
    padded = float(len(lengths) * max(int(n) for n in lengths))
    bucketed = float(
        sum(len(indices) * pad_len for indices, pad_len in bucket_by_length(lengths, min_bucket))
    )
    return 1.0 - useful / padded, 1.0 - useful / bucketed


class AttendScratch:
    """Reusable pad/mask/temporary buffers for decode rounds.

    A decode round runs every decoder layer over the same slots with the
    same cached lengths, so the padded K/V scratch and the additive length
    mask have identical shapes layer after layer.  The round's caller
    (:meth:`TransformerDecoder.forward_incremental
    <repro.nn.transformer.TransformerDecoder.forward_incremental>`) threads
    one scratch through all layers: buffers allocate once per round instead
    of once per layer, and the mask builds once per round.

    A scratch may also persist *across* rounds (the scheduler owns one for
    the lifetime of the serve loop) — the owner calls :meth:`begin_round`
    at each round boundary.  Masks depend on the round's slot lengths, so
    they rebuild every round; pad buffers and the generic :meth:`buffer`
    temporaries survive, because every value read out of them is either
    freshly written this round or masked to ``-inf`` (zero softmax weight).
    Stale K/V values beyond a slot's length are finite (they were real K/V
    once, and the buffers zero-initialise on allocation), so no NaN/Inf
    garbage can leak through the ``0 × value`` products.
    """

    def __init__(self) -> None:
        self._pads: dict = {}
        self._masks: dict = {}
        self._buffers: dict = {}

    def begin_round(self) -> None:
        """Reset per-round state while keeping the allocations.

        Must be called at every round boundary when the scratch persists
        across rounds: the cached masks encode the *previous* round's slot
        lengths and must rebuild, while pads and temporaries may be reused.
        """
        self._masks.clear()

    def pads(self, key, shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """The round's reusable ``(k_pad, v_pad)`` buffers for one bucket."""
        pads = self._pads.get(key)
        if pads is None or pads[0].shape != shape:
            pads = (np.zeros(shape), np.zeros(shape))
            self._pads[key] = pads
        return pads

    def mask(self, key, build) -> np.ndarray:
        """The round's additive length mask for one bucket (built once)."""
        mask = self._masks.get(key)
        if mask is None:
            mask = build()
            self._masks[key] = mask
        return mask

    def buffer(self, key, shape: Tuple[int, ...]) -> np.ndarray:
        """A reusable named temporary of ``shape`` (contents unspecified).

        Used for the round's fully-overwritten intermediates (fused QKV
        output, attended values, per-bucket score matrices) so the hot loop
        stops allocating fresh arrays layer after layer.  Callers must write
        every element they later read — nothing is zeroed on reuse.
        """
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape)
            self._buffers[key] = buf
        return buf


class MultiHeadAttention(Module):
    """Multi-head scaled dot-product attention.

    Supports self-attention (``context is None``), cross-attention (BART-style
    decoder) and causal masking (GPT-style decoding).  The four projection
    matrices (Q, K, V, output) are ordinary :class:`Linear` layers, which is
    exactly where the OliVe quantization framework attaches its fake-quant
    wrappers.
    """

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if hidden_size % num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")
        self.hidden_size = int(hidden_size)
        self.num_heads = int(num_heads)
        self.head_dim = hidden_size // num_heads
        rng = rng or np.random.default_rng(0)
        self.q_proj = Linear(hidden_size, hidden_size, rng=rng)
        self.k_proj = Linear(hidden_size, hidden_size, rng=rng)
        self.v_proj = Linear(hidden_size, hidden_size, rng=rng)
        self.out_proj = Linear(hidden_size, hidden_size, rng=rng)
        # Lazily-built (source_arrays, (W_qkv^T, b_qkv)) pair for the fused
        # decode-round projection; invalidated by identity whenever any of
        # the six source weight/bias arrays is replaced (e.g. by packing).
        self._fused_qkv = None

    #: Decode-round Q/K/V projection: "fused" concatenates the three weight
    #: matrices once and runs a single GEMM per round (the production path);
    #: "unfused" runs the three Linear projections separately — the oracle
    #: the greedy-token-identity tests pin the fused path against.
    qkv_mode: str = "fused"

    def _fused_qkv_operands(self):
        """Cached ``(W_qkv^T, b_qkv)`` for the fused round projection.

        Only plain :class:`Linear` projections fuse — a quantization wrapper
        must keep running its own ``forward``, so any subclass falls back to
        the unfused path.  The cache holds references to the six source
        arrays and rebuilds when any is replaced (``is`` comparison), which
        is how the packing/finalise passes swap weights in this codebase.
        """
        for proj in (self.q_proj, self.k_proj, self.v_proj):
            if type(proj) is not Linear or proj.bias is None:
                return None
        sources = (
            self.q_proj.weight.data, self.k_proj.weight.data,
            self.v_proj.weight.data, self.q_proj.bias.data,
            self.k_proj.bias.data, self.v_proj.bias.data,
        )
        cached = self._fused_qkv
        if cached is not None and all(a is b for a, b in zip(cached[0], sources)):
            return cached[1]
        weight_t = np.concatenate([w.T for w in sources[:3]], axis=1)
        bias = np.concatenate(sources[3:])
        operands = (np.ascontiguousarray(weight_t), bias)
        self._fused_qkv = (sources, operands)
        return operands

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, seq, _ = x.shape
        x = x.reshape(batch, seq, self.num_heads, self.head_dim)
        return x.transpose(0, 2, 1, 3)  # (batch, heads, seq, head_dim)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, heads, seq, dim = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * dim)

    def forward(
        self,
        hidden: np.ndarray,
        context: Optional[np.ndarray] = None,
        causal: bool = False,
        attention_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run attention.

        Parameters
        ----------
        hidden:
            Query-side input of shape ``(batch, seq, hidden)``.
        context:
            Key/value-side input for cross-attention; defaults to ``hidden``.
        causal:
            Apply a lower-triangular mask (decoder self-attention).
        attention_mask:
            Optional additive mask broadcastable to ``(batch, heads, q, k)``.
        """
        hidden = np.asarray(hidden, dtype=np.float64)
        kv_input = hidden if context is None else np.asarray(context, dtype=np.float64)

        q = self._split_heads(self.q_proj(hidden))
        k = self._split_heads(self.k_proj(kv_input))
        v = self._split_heads(self.v_proj(kv_input))

        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(self.head_dim)
        if causal:
            scores = scores + F.causal_mask(scores.shape[-1])[None, None]
        if attention_mask is not None:
            scores = scores + attention_mask
        weights = F.softmax(scores, axis=-1)
        attended = weights @ v
        return self.out_proj(self._merge_heads(attended))

    def forward_incremental(
        self,
        hidden: np.ndarray,
        layer_caches: Sequence,
        scratch: Optional[AttendScratch] = None,
        batched_rounds: Optional[bool] = None,
        tracer=None,
    ) -> np.ndarray:
        """Causal self-attention over cached K/V plus the new tokens.

        Parameters
        ----------
        hidden:
            New-token hidden states of shape ``(num_seqs, t_new, hidden)``.
            Each row is an independent sequence: row ``i``'s K/V are appended
            to ``layer_caches[i]`` and attention runs over that sequence's
            full cached history.  Prefill passes one row with the whole
            prompt; a continuous-batching decode round passes one single-token
            row per active slot; a speculative verify round passes ``m``
            tokens per slot.
        layer_caches:
            One per-sequence cache (``append``/``kv``/``seq_len``, e.g.
            :class:`~repro.serve.kvcache.LayerKVCache`) per row of ``hidden``.
        scratch:
            Optional round-level :class:`AttendScratch` so the decode-round
            pad/mask buffers allocate once per round, not once per layer.
        batched_rounds:
            Route through the ragged round kernel (:meth:`_attend_round`).
            Defaults to auto: single-token multi-slot rounds take the kernel,
            everything else (prefill) the per-sequence loop.  Speculative
            verify passes ``True`` so its ``m``-token rows ride the bucketed
            round kernel instead of the loop.
        tracer:
            Optional span tracer (``span(name, attrs=None)`` context-manager
            protocol, duck-typed so this module stays serve-agnostic).  The
            round kernel records ``kv_append`` and per-bucket ``attend``
            spans; ``None`` (the default) keeps the hot path untouched.

        The four projections are computed for the new tokens only — one
        batched GEMM across all rows — so a decode step costs O(1) GEMM work
        per token instead of recomputing the whole prefix.
        """
        hidden = np.asarray(hidden, dtype=np.float64)
        if hidden.ndim != 3:
            raise ValueError("incremental attention expects (num_seqs, t_new, hidden)")
        if len(layer_caches) != hidden.shape[0]:
            raise ValueError(
                f"got {hidden.shape[0]} sequences but {len(layer_caches)} layer caches"
            )
        num_seqs, t_new = hidden.shape[0], hidden.shape[1]
        if batched_rounds is None:
            batched_rounds = t_new == 1 and num_seqs > 1
        # Fuse only the round kernel: prefill stays on the three separate
        # projections so the one-shot prefill path remains bitwise-equal to
        # ``forward`` (the round loop pins token identity, not bitwise).
        fused = (
            self._fused_qkv_operands()
            if batched_rounds and self.qkv_mode == "fused"
            else None
        )
        traced = tracer is not None and tracer.enabled
        with tracer.span("qkv_proj") if traced else _NULL_BUCKET_SPAN:
            if fused is not None:
                weight_t, bias = fused
                shape = (num_seqs, t_new, weight_t.shape[1])
                # Flatten to one GEMM: a 3-D ``matmul`` would loop
                # per-sequence GEMMs, re-streaming the fused weight for
                # every slot in the round.
                flat = hidden.reshape(-1, hidden.shape[-1])
                if scratch is not None:
                    qkv = scratch.buffer("qkv", shape)
                    np.matmul(flat, weight_t, out=qkv.reshape(flat.shape[0], -1))
                else:
                    qkv = (flat @ weight_t).reshape(shape)
                qkv += bias
                size = self.hidden_size
                q = self._split_heads(qkv[..., :size])
                k_new = self._split_heads(qkv[..., size : 2 * size])
                v_new = self._split_heads(qkv[..., 2 * size :])
            else:
                q = self._split_heads(self.q_proj(hidden))
                k_new = self._split_heads(self.k_proj(hidden))
                v_new = self._split_heads(self.v_proj(hidden))
        if batched_rounds:
            attended = self._attend_round(
                q, k_new, v_new, layer_caches, scratch=scratch, tracer=tracer
            )
            if tracer is not None and tracer.enabled:
                with tracer.span("out_proj"):
                    return self.out_proj(self._merge_heads(attended))
            return self.out_proj(self._merge_heads(attended))
        attended = np.empty_like(q)
        for i, cache in enumerate(layer_caches):
            past = cache.seq_len
            cache.append(k_new[i], v_new[i])
            k, v = cache.kv()  # (heads, past + t_new, head_dim)
            scores = q[i] @ k.transpose(0, 2, 1)
            scores /= np.sqrt(self.head_dim)
            if t_new > 1:
                scores += F.incremental_causal_mask(past, t_new)[None]
            np.matmul(F.softmax(scores, axis=-1), v, out=attended[i])
        return self.out_proj(self._merge_heads(attended))

    #: Ragged decode-round attend kernel: "bucketed" (length-bucketed GEMMs,
    #: the production path) or "padded" (pad every slot to the round's
    #: longest — the equivalence oracle the tests compare against).
    ragged_attend: str = "bucketed"

    def _attend_round(
        self,
        q: np.ndarray,
        k_new: np.ndarray,
        v_new: np.ndarray,
        layer_caches: Sequence,
        scratch: Optional[AttendScratch] = None,
        tracer=None,
    ) -> np.ndarray:
        """Batched attend across ragged sequences (one decode/verify round).

        ``q`` is ``(num_seqs, heads, t_new, head_dim)``: ``t_new == 1`` is
        the classic continuous-batching decode round, ``t_new > 1`` the
        speculative verify round where every slot advances ``m`` tokens at
        once (queries mask causally inside the appended block).  Appends each
        slot's new K/V, fetches every slot's cached history (one batched
        page-pool pass for caches that support ``kv_many``) and dispatches to
        the bucketed kernel or the padded oracle according to
        :attr:`ragged_attend`.
        """
        traced = tracer is not None and tracer.enabled
        if traced:
            with tracer.span("kv_append", attrs={"slots": len(layer_caches)}):
                for i, cache in enumerate(layer_caches):
                    cache.append(k_new[i], v_new[i])
        else:
            for i, cache in enumerate(layer_caches):
                cache.append(k_new[i], v_new[i])
        # Caches that support it decode every slot's sealed pages in one
        # batched pass (duck-typed so this module stays serve-agnostic).
        kv_many = getattr(type(layer_caches[0]), "kv_many", None)
        if kv_many is not None:
            kvs = kv_many(layer_caches)
        else:
            kvs = [cache.kv() for cache in layer_caches]
        lengths = [k.shape[1] for k, _ in kvs]
        if self.ragged_attend == "padded":
            if traced:
                with tracer.span(
                    "attend", attrs={"bucket": max(lengths), "slots": len(lengths)}
                ):
                    return self._padded_attend(q, kvs, lengths)
            return self._padded_attend(q, kvs, lengths)
        return self._bucketed_attend(q, kvs, lengths, scratch=scratch, tracer=tracer)

    @staticmethod
    def _round_mask(
        lengths: Sequence[int], indices: Sequence[int], pad_len: int, t_new: int
    ) -> np.ndarray:
        """Additive length mask of one bucket of a decode/verify round.

        For ``t_new == 1`` this is the classic per-slot length mask.  For a
        verify round the block of ``t_new`` appended tokens masks causally:
        query row ``j`` of slot ``i`` may attend the ``lengths[i] - t_new +
        1 + j`` oldest keys (its full past plus the appended tokens up to and
        including itself).
        """
        if t_new == 1:
            mask = np.full((len(indices), 1, 1, pad_len), -np.inf)
            for row, i in enumerate(indices):
                mask[row, ..., : lengths[i]] = 0.0
            return mask
        mask = np.full((len(indices), 1, t_new, pad_len), -np.inf)
        for row, i in enumerate(indices):
            for j in range(t_new):
                mask[row, 0, j, : lengths[i] - t_new + 1 + j] = 0.0
        return mask

    def _padded_attend(
        self, q: np.ndarray, kvs: Sequence, lengths: Sequence[int]
    ) -> np.ndarray:
        """Pad every slot to the round's longest sequence — the oracle path.

        K/V are right-padded to the round's longest and the padding masked to
        ``-inf``, so the scores/softmax/attend chain runs as one batched op
        instead of a per-slot loop.  Mathematically identical to the per-slot
        path (softmax sends masked columns to exactly zero weight).  At large
        slot counts the short slots pay the longest slot's GEMM — the padding
        waste the bucketed kernel removes.
        """
        num_seqs, num_heads, t_new, head_dim = q.shape
        max_len = max(lengths)
        k_pad = np.zeros((num_seqs, num_heads, max_len, head_dim))
        v_pad = np.zeros((num_seqs, num_heads, max_len, head_dim))
        mask = self._round_mask(lengths, range(num_seqs), max_len, t_new)
        for i, (k, v) in enumerate(kvs):
            k_pad[i, :, : lengths[i]] = k
            v_pad[i, :, : lengths[i]] = v
        scores = q @ k_pad.transpose(0, 1, 3, 2) / np.sqrt(self.head_dim) + mask
        return F.softmax(scores, axis=-1) @ v_pad

    def _bucketed_attend(
        self,
        q: np.ndarray,
        kvs: Sequence,
        lengths: Sequence[int],
        scratch: Optional[AttendScratch] = None,
        tracer=None,
    ) -> np.ndarray:
        """Length-bucketed ragged attend: one padded GEMM per pow-2 bucket.

        Slots group into power-of-two length buckets; each bucket pads only
        to its own longest member, so a round mixing 16- and 512-token slots
        runs a small GEMM and a large GEMM instead of padding everything to
        512.  With a round-level ``scratch`` the pad buffers and masks are
        reused across all decoder layers (lengths are identical layer to
        layer within a round).  Bucket membership and mask zero out exactly
        the same columns as the padded oracle, so the kernels agree to
        floating-point round-off and on every greedy token.
        """
        num_heads, t_new, head_dim = q.shape[1], q.shape[2], q.shape[3]
        traced = tracer is not None and tracer.enabled
        if scratch is not None:
            attended = scratch.buffer("attended", q.shape)
        else:
            attended = np.empty(q.shape)
        for key, (indices, pad_len) in enumerate(bucket_by_length(lengths)):
            span = (
                tracer.span("attend", attrs={"bucket": pad_len, "slots": len(indices)})
                if traced
                else _NULL_BUCKET_SPAN
            )
            with span:
                shape = (len(indices), num_heads, pad_len, head_dim)
                if scratch is not None:
                    k_pad, v_pad = scratch.pads(key, shape)
                else:
                    k_pad, v_pad = np.zeros(shape), np.zeros(shape)

                def build_mask(indices=indices, pad_len=pad_len):
                    return self._round_mask(lengths, indices, pad_len, t_new)

                mask = (
                    scratch.mask(key, build_mask) if scratch is not None else build_mask()
                )
                for row, i in enumerate(indices):
                    k, v = kvs[i]
                    k_pad[row, :, : lengths[i]] = k
                    v_pad[row, :, : lengths[i]] = v
                # A single bucket covers every slot in order; skip the
                # fancy-index copy of q in that (common, uniform-length) case.
                q_sel = q[indices] if len(indices) < len(lengths) else q
                k_t = k_pad.transpose(0, 1, 3, 2)
                if scratch is not None:
                    score_shape = (len(indices), num_heads, t_new, pad_len)
                    scores = np.matmul(
                        q_sel, k_t, out=scratch.buffer(("scores", key), score_shape)
                    )
                    scores /= np.sqrt(self.head_dim)
                    scores += mask
                else:
                    scores = q_sel @ k_t / np.sqrt(self.head_dim) + mask
                attended[indices] = F.softmax(scores, axis=-1) @ v_pad
        return attended
