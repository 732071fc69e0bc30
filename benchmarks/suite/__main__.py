"""``python -m benchmarks.suite`` — same as ``python benchmarks/suite/run.py``."""

import sys

from .run import main

sys.exit(main())
