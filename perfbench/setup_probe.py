"""Time one fresh interpreter from ``import cuntzfrac`` to its first answer.

    python3 -S perfbench/setup_probe.py <checkout-root>

Prints one JSON line: the seconds taken, the command's exit code and output,
where the package was imported from, and the time of the calibration kernel
measured afterwards (``calibrate.py``).
"""

import io
import sys

sys.path.insert(0, sys.argv[1] + "/src")

import time  # noqa: E402

start = time.perf_counter()
import cuntzfrac  # noqa: E402,F401
from cuntzfrac import cli  # noqa: E402

sys.stdout = io.StringIO()
rc = cli.main(["classify", "(-1+1*sqrt(5))/2"])
answer = sys.stdout.getvalue()
elapsed = time.perf_counter() - start
sys.stdout = sys.__stdout__

import json  # noqa: E402
import statistics  # noqa: E402

import calibrate  # noqa: E402

kernel_s = statistics.median(calibrate.kernel_time() for _ in range(5))
print(json.dumps({"setup_s": elapsed, "kernel_s": kernel_s, "rc": rc, "answer": answer,
                  "package": cuntzfrac.__file__}))
