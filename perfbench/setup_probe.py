"""Times one CLI call's set-up in a fresh interpreter and prints the seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG

Set-up is importing nls, parsing CONFIG, sampling the initial data and
warming the wavenumber cache, all before the first step.
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports nls)

workloads.setup(Path(sys.argv[1]))
print(repr(time.perf_counter() - start))
