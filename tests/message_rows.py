"""A heralded message's branches as (prob, lam, labels) rows, read from its
arrays `probs`, `lams` and `labels`, for tests that check one branch at a
time."""

from typing import NamedTuple

import numpy as np


class Row(NamedTuple):
    prob: float
    lam: np.ndarray
    labels: tuple


def rows(msg) -> list[Row]:
    return [Row(*row) for row in zip(msg.probs.tolist(), msg.lams, msg.labels)]
