"""Entry point of the suite, and of the benchmark driver.

Pins BLAS to one thread and puts the checkout's ``src`` on the path
*before* numpy or ``repro`` is imported, then hands over to ``cli``.
"""

import os
import sys

#: One client, one thread; a second core is left to the OS.  ``cli``
#: records the values in every result's fingerprint.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for name in THREAD_PINS:
        os.environ[name] = "1"
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(here))
    # Run as a script, this directory leads the path and its trace.py
    # would shadow the standard library's.
    sys.path[:] = [entry for entry in sys.path
                   if os.path.abspath(entry or os.curdir) != here]
    for entry in (root, os.path.join(root, "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.suite import cli
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
