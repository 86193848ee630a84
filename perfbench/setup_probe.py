"""Cold start of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON line: setup_s, the time from the first `import softlockstep`
to the return of the workload's first operation with input generation left
out, and the correctness problems of that operation. run.py starts it
several times and reports the median as setup_s.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import softlockstep  # noqa: F401  (the import is what is being timed)

    imported = time.perf_counter()
    import cases

    case = cases.build(workload, seed)
    case.reset()
    op_start = time.perf_counter()
    try:
        result = case.run()
    except Exception as exc:
        problems = [f"first operation raised {exc!r}"]
    else:
        op_end = time.perf_counter()
        problems = case.check(result)
    setup_s = (imported - start) + (op_end - op_start) if not problems else None
    print(json.dumps({"setup_s": setup_s, "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
