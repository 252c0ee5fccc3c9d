"""The repo's one benchmark: four workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
                                  [--trace 0|1] [--repeat N] [--out FILE]
    python3 benchmarks/e2e/run.py compare A.json B.json

See ``README.md`` beside this file for the workloads, the metric names and
how to read the numbers. The program under test is built from ``src/`` of
the checkout this file sits in; nothing else is needed on the path.
"""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 3
    sys.path[:0] = [str(HERE), str(SRC)]
    from e2ebench.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    raise SystemExit(main())
