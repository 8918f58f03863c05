"""Benchmark of the dgmf library.

    python3 bench/run.py --workload {pipeline,support,fiber} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: dgmf is imported from ./src, never from an
installed copy.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it summarize the
run.  See bench/README.md.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


if __name__ == "__main__":
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dgmf", "__init__.py")):
        print(f"bench/run.py: no dgmf sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from dgmf_bench.harness import main

    sys.exit(main(sys.argv[1:], ROOT))
