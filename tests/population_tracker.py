"""The per-step population tracker of earlier releases, kept as a test
reference: `factors.Tracker` with a `step` and a `guard` per rule.  In exact
mode `step` runs a rule over the branch product (`factors._product_apply`)
and `guard` is `messages.guard`; in sampled mode `step` runs the rule on the
aligned rows of its operand messages, draws that step's uniforms when it runs
and checks the step's output rows at once, and `guard` passes its message on."""

import numpy as np

from abelianbp import messages
from abelianbp.eigenlists import EigenList
from abelianbp.factors import Tracker, _in_blocks, _product_apply, sample_rows
from abelianbp.messages import HeraldedMessage, product_labels


class PopulationTracker(Tracker):
    def step(self, rule, msgs):
        if self.rng is None:
            return _product_apply(msgs, rule)
        S = len(msgs[0])
        u = np.zeros(S) if rule.herald is None else self.rng.random(S)
        lams, h = _in_blocks(lambda s: sample_rows(rule, [m.lams[s].T for m in msgs], u[s]),
                             rule, msgs[0].lams.shape[1], S)
        herald = None if h is None else (*rule.herald[:2], rule.herald[2][h])
        labels = product_labels([m._labels for m in msgs], [None] * len(msgs), herald)
        return HeraldedMessage._make(rule.group, msgs[0].probs,
                                     EigenList.checked_rows(rule.group, lams.T), labels)

    def guard(self, msg, prune_eps=0.0):
        return msg if self.rng is not None else messages.guard(msg, prune_eps)
