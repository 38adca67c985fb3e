"""Record the exact-mode reference values that `exact_mixtures` checks against.

Run from the repository root, at the commit whose results are the reference:

    PYTHONPATH=src python3 perfbench/record_reference.py

It writes ``perfbench/reference.json``: for each channel-family point of the
grid and each workload size, the per-index polar statistics of exact
``synthesize`` and the per-section metrics of exact ``decode_block``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from abelianbp import de, polar, trellis  # noqa: E402
from workloads import (  # noqa: E402
    LAMBDA_GRID,
    REFERENCE_PATH,
    SIZES,
    constituent,
    conv_rows,
    polar_rows,
    reference_key,
)


def main():
    spec = constituent()
    out = {}
    for size_name in ("tiny", "full"):
        size = SIZES[size_name]
        T = size["conv_exact_T"]
        for lam0 in LAMBDA_GRID:
            base = de.channel_family(3, lam0)
            t0 = time.perf_counter()
            stats = polar.synthesize(base, size["polar_exact_levels"], mode="exact")
            t1 = time.perf_counter()
            results = trellis.decode_block(spec, [[base]] * T, symbol_obs_seq=[base] * T,
                                           prune_eps=1e-6)
            t2 = time.perf_counter()
            out[reference_key(size_name, lam0)] = {
                "polar": polar_rows(stats), "conv": conv_rows(results)}
            print(f"{size_name} lambda0={lam0}: polar {t1 - t0:.2f} s, "
                  f"conv {t2 - t1:.2f} s", flush=True)
    with open(REFERENCE_PATH, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
