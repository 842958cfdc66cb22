"""Print the seconds this fresh interpreter takes to import maxconv.cli from
SRC, then the calibration loop's time measured right after it.

    python3 import_probe.py SRC
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import maxconv.cli  # noqa: E402,F401

elapsed = time.perf_counter() - t0

from worker import calibrate  # noqa: E402

print(elapsed, calibrate())
