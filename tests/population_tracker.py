"""The per-step population tracker of earlier releases, kept as a test
reference: `factors.Tracker` whose sampled `step` runs a rule on the aligned
rows of its operand messages, draws that step's uniforms when it runs and
checks the step's output rows at once."""

import numpy as np

from abelianbp.eigenlists import EigenList
from abelianbp.factors import Tracker, _in_blocks, sample_rows
from abelianbp.messages import HeraldedMessage, product_labels


class PopulationTracker(Tracker):
    def step(self, rule, msgs):
        if self.rng is None:
            return super().step(rule, msgs)
        S = len(msgs[0])
        u = np.zeros(S) if rule.herald is None else self.rng.random(S)
        lams, h = _in_blocks(lambda s: sample_rows(rule, [m.lams[s] for m in msgs], u[s]),
                             rule, msgs[0].lams.shape[1], S)
        herald = None if h is None else (*rule.herald[:2], rule.herald[2][h])
        labels = product_labels([m._labels for m in msgs], [None] * len(msgs), herald)
        return HeraldedMessage._make(rule.group, msgs[0].probs,
                                     EigenList.checked_rows(rule.group, lams), labels)

    def guard(self, msg, prune_eps=0.0):
        return msg if self.rng is not None else super().guard(msg, prune_eps)
