"""One sample of ``setup_s``, in a fresh interpreter with flagnef's ``src`` on
PYTHONPATH:

    child.py <workload> <module,module,...> <op-json>

prints the seconds that importing the given flagnef modules and then one
warm-up op take.  The modules are imported before anything else, so that
every module flagnef needs is loaded, and timed, by that import; the
benchmark's own modules are loaded between the two timed intervals.
"""

import sys
import time


def main(workload_name, modules, op_json):
    start = time.perf_counter()
    for name in modules.split(","):
        __import__(name)
    imported = time.perf_counter() - start

    import json

    import workloads

    wl = workloads.make(workload_name, smoke=False)
    x = json.loads(op_json)
    start = time.perf_counter()
    wl.warm_up(sys.modules["flagnef"], x)
    print(repr(imported + time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
