#!/usr/bin/env python3
"""Run one benchmark workload: ``python3 perfbench/run.py --workload fig10 --seed 7``.

Run from the repository root. The simulator is imported from ``src/``; the
time from here to the end of that import is part of ``setup_s``.
"""

import time

T_ENTRY = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.bench import main
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    return main(sys.argv[1:], t_import=time.perf_counter() - T_ENTRY)


if __name__ == "__main__":
    sys.exit(_main())
