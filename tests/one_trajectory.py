"""The one-trajectory herald sampler of earlier releases, kept as a test
reference: a message is reduced to one branch, drawn at one uniform."""

import numpy as np

from abelianbp import messages
from abelianbp.eigenlists import EigenList
from abelianbp.messages import _ONE, _gather


def _draw(msg, rng) -> int:
    probs = msg.probs
    u = rng.random()
    return min(int(np.searchsorted(np.cumsum(probs), u * probs.sum(), side="right")), len(msg) - 1)


def sample(msg, rng):
    """Draw one branch; deterministic given the generator state."""
    idx = _draw(msg, rng)
    return EigenList._of_valid(msg.group, msg.lams[idx]), msg._labels.render()[idx]


def guard(msg, rng, prune_eps=0.0):
    """`messages.guard` without `rng`; with it, the message keeps one drawn
    herald (and `prune_eps` is not used)."""
    if rng is not None:
        idx = _draw(msg, rng)
        return _gather(msg, _ONE, msg.lams[idx:idx + 1], np.array([idx]))
    return messages.guard(msg, prune_eps)
