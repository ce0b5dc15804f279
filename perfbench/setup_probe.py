"""Reference time of a fresh ``import harmonic_ratios.cli``, printed.

Usage: python3 perfbench/setup_probe.py   (with the program's sources on
PYTHONPATH)

The import is timed with ``speed.Speedometer``, so the time is converted to
the reference speed like every other time of the benchmark.
"""

import time

from speed import Speedometer

meter = Speedometer()
meter.start()
start = time.thread_time()
import harmonic_ratios.cli  # noqa: E402,F401

end = time.thread_time()
meter.stop()
print(repr(meter.ref_seconds(start, end)))
