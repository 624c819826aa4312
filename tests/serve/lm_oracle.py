"""Per-request decode oracle shared by the serving tests.

``reference_decode`` runs one request alone, straight on the model: one
incremental pass per token over a private KV cache, greedy by
``np.argmax`` or sampled by a per-request :class:`Sampler` drawing from its
own seeded generator.  It shares no code with the scheduler's batched
sample/stop/emit loop, so the scheduler's tokens must match it token for
token whatever else is co-batched.
"""

import numpy as np

from repro.serve.kvcache import cache_for_model
from repro.serve.sampling import Sampler, SamplingParams


def reference_decode(model, prompt, params: SamplingParams, cache_config):
    """Token ids one request generates when decoded alone."""
    cache = cache_for_model(model, cache_config)
    sampler = Sampler(params)
    generator = sampler.make_generator()
    tokens = []
    try:
        log_probs = model.log_probs_incremental(
            np.asarray(prompt)[None, :], [cache], last_only=True
        )[0, -1]
        while True:
            if params.greedy:
                token = int(np.argmax(log_probs))
            else:
                token = sampler.sample(log_probs, generator).token_id
            tokens.append(token)
            if token in params.stop_token_ids or len(tokens) >= params.max_new_tokens:
                return tokens
            log_probs = model.log_probs_incremental(np.array([[token]]), [cache])[0, -1]
    finally:
        cache.release()
