"""Record the outputs the benchmark checks against into bench/reference.json.

    python3 bench/record_reference.py

Run it once, at the commit whose outputs are the reference; every later
benchmark run compares its outputs with this file (see ops.check).
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from run import KINDS, git_commit  # noqa: E402  (pins BLAS threads first)
import ops  # noqa: E402


def main() -> int:
    reference = {"commit": git_commit()}
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        fixture = ops.setup(Path(tmp))
        for size in ops.SIZES:
            reference[size] = {}
            for kind in KINDS:
                wd = Path(tmp) / f"{size}-{kind}"
                wd.mkdir()
                op = ops.execute(kind, size, fixture, wd, seed=0)
                if op.errors:
                    print(f"{kind}/{size}: {op.errors}", file=sys.stderr)
                    return 1
                reference[size][kind] = {k: op.out[k]
                                         for k in ops.REFERENCE_KEYS[kind]}
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
