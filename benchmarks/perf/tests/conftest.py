"""Self-tests of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf/tests -q
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
