"""Regenerate ``routebench/pool.json``, the calibrated circuit pool.

    python3 routebench/calibrate.py

Run from the repository root.  The pool's ``pool`` corpus lists the
variants whose width search and verdict oracle fit the budgets below,
counted in conflicts so the list does not depend on the machine; the
budgets are written with it and bound every later run.  Each entry
records ``[profile, index, width, digest]``, and set-up fails a run
whose circuits no longer match.  Regenerate the
pool only together with a change to the benchmark, or with a program
change that changes the generated instances or their widths: a change
to the program must be measured on the pool its parent was measured on.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from routebench import corpus  # noqa: E402

#: The width-searched corpus: size, scale and conflict budgets (per
#: width probe, and per W_min-1 proof under each strategy).
POOL = {"scale": 0.5, "size": 60, "search_budget": 300, "oracle_budget": 900}


def main() -> int:
    pool = {
        "pool": {"scale": POOL["scale"],
                 "search_budget": POOL["search_budget"],
                 "oracle_budget": POOL["oracle_budget"],
                 "variants": corpus.calibrate(
                     POOL["scale"], POOL["size"], POOL["search_budget"],
                     POOL["oracle_budget"])},
    }
    with open(corpus.POOL_FILE, "w") as handle:
        json.dump(pool, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(pool['pool']['variants'])} pool variants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
