"""Set-up cost in a fresh interpreter: import convexcodes, then the first decide.

The first decide builds the lazy contractibility table.  Prints the
seconds taken, then one calibration-kernel timing made afterwards, so the
caller can scale the first to the nominal machine.
"""

import time

start = time.perf_counter()
import convexcodes  # noqa: E402

convexcodes.decide(convexcodes.parse_code("134, 1357, 257, 356, 13, 35, 57"))
elapsed = time.perf_counter() - start

import calibrate  # noqa: E402

print(repr(elapsed), repr(calibrate.kernel_seconds()))
