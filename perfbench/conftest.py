"""Make the benchmark modules and the program importable for its tests.

Run the self-tests from the root of a checkout with
``python3 -m pytest perfbench -q``.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.join(os.path.dirname(_HERE), "src")]
