"""Record golden verdicts: run every operation any pass can draw and write
their observation records to golden.json.

    python3 perfbench/golden.py [--seeds 0 1]

Run it at the commit whose verdicts are the reference. Each seed builds its
own inputs; a record that differs between seeds or between instances of the
same seeded case is an error, because a golden record must hold for every
seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    p.add_argument("--out", default=str(HERE / "golden.json"))
    a = p.parse_args()

    import run

    os.environ.update(run.child_env())
    sys.path.insert(0, os.environ["PYTHONPATH"])
    import numpy as np

    import ops

    golden: dict = {}
    for name, workload in ops.WORKLOADS.items():
        for seed in a.seeds:
            with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
                ctx = ops.Context(Path(tmp), dict(os.environ))
                workload.setup(ctx, np.random.default_rng(seed))
                for op in workload.catalog(ctx):
                    rec = ops.plain(op.observe(ctx, op.run(ctx)))
                    if op.key in golden and ops.mismatches(rec, golden[op.key]):
                        raise SystemExit(f"{op.key} is not seed-independent: {ops.mismatches(rec, golden[op.key])}")
                    golden.setdefault(op.key, rec)
                    print(f"{name} seed {seed}: {op.key}", flush=True)
    Path(a.out).write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} records -> {a.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
