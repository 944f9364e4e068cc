"""Child process of the set-up measurement in run.py.

    python3 bench/setup_probe.py <workload> <seed>

Imports the library, builds the workload's seeded inputs and prints one JSON
line with the import time once the first op is ready to start.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from library import import_library, make_workload  # noqa: E402

lib = import_library()
import_s = time.perf_counter() - START
make_workload(lib, sys.argv[1], int(sys.argv[2]))
print(json.dumps({"import_s": import_s}), flush=True)
