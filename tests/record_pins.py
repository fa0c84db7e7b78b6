"""Record the kernel-keyed bitwise pins for the OpenBLAS kernel that runs it.

Run from the repository root::

    PYTHONPATH=src python tests/record_pins.py

Each pin file maps a kernel name (``blas_core()``) to its set. This
writes the running kernel's set into every such file, beside the sets of
other kernels, and replaces an old set of the same kernel. A CPU can run
an older kernel than its own, e.g. ``OPENBLAS_CORETYPE=Haswell`` on an
AVX-512 Xeon. A new set pins whatever the code computes under that
kernel, so check it before committing it.
"""

import json
import re
import sys

import test_estimators
import test_neuralnet

from cmigan.estimators import blas_core


def _dumps(sets: dict) -> str:
    """``sets`` as sorted JSON indented by one space, with each
    ``[step, loss, loss]`` trace row on one line."""
    text = json.dumps(sets, indent=1, sort_keys=True)
    return re.sub(r'\[\n\s*(\d+),\n\s*("[^"]*"),\n\s*("[^"]*")\n\s*\]', r"[\1, \2, \3]", text) + "\n"


def record(path: str, pins, core: str):
    with open(path, encoding="utf-8") as fh:
        sets = json.load(fh)
    sets[core] = pins
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(sets))


def main():
    core = blas_core()
    if core is None:
        sys.exit("no OpenBLAS in this process, so no kernel to key a set by")
    golden = {case: test_estimators._golden_report(case) for case in test_estimators._GOLDEN_CASES}
    record(test_estimators._GOLDEN_PATH, golden, core)
    record(test_neuralnet._SIGNED_ZERO_PATH, test_neuralnet._signed_zero_pins(), core)
    print(f"recorded the {core} sets")


if __name__ == "__main__":
    main()
