"""Program-independent work that measures the machine's speed during a run.

The benchmark shares its cores with other tenants.  Their load changes the
speed of the machine for tens of seconds at a time, longer than one run, so
the run-to-run spread of raw times exceeds every usable bound.  The shift
moves the program and fixed work of the same kind alike, so the benchmark
times kernel() after each invocation's calls (and after each set-up import)
and multiplies a time measured in a pass by REFERENCE_S / (median kernel
time in that pass).  A scaled time reads as seconds on a machine where the
kernel takes REFERENCE_S; run.py prints the raw times next to the scaled
ones.  The kernel does not call the program, so a change to the program
moves scaled and raw times alike.

The kernel mixes LAPACK/numpy work with some interpreted Python (module
execution and float formatting).  The load does not slow all work alike: in
one slow period interpreted Python slowed about 60% and LAPACK/numpy work
about 10%.  A fresh verify process is import (interpreted) plus numeric
compute, and this mix tracked both the fresh and the warm verify times.
"""
import marshal

import numpy as np
from scipy.linalg import eigh_tridiagonal

REFERENCE_S = 0.04  # nominal kernel time; sets the scale of scaled times

_N = 1500
_DIAG = np.linspace(1.0, 3.0, _N)
_OFF = np.full(_N - 1, -0.5)
_W = np.linspace(-6.0, 6.0, 4001)
_MODULE = marshal.dumps(
    compile(
        "\n".join(
            f"def f{i}(x, y={i}):\n    return [x * y, {{'k{i}': x}}, (x, y)]\n"
            f"T{i} = {{'a': {i}, 'b': [{i}, {i + 1}], 'c': 'v{i}'}}"
            for i in range(150)
        ),
        "<calibration>",
        "exec",
    )
)


def kernel():
    """A LAPACK tridiagonal eigensolve and numpy transcendental functions on
    a 4001-point grid, as in the oracle and the potentials, then executing
    freshly unmarshalled module code, as an import does, and formatting
    floats into CSV rows.  Returns a checksum so nothing is optimised away."""
    total = float(eigh_tridiagonal(_DIAG, _OFF, eigvals_only=True)[0])
    for _ in range(3):
        total += float(np.sum(np.cosh(_W) ** 2 * np.tanh(_W) - 0.75 * np.cosh(_W) ** 2))
    namespace = {}
    exec(marshal.loads(_MODULE), namespace)
    rows = [",".join((repr(i * 0.1), repr(namespace[f"f{i % 150}"](i)[0]))) for i in range(3000)]
    return total + len("\n".join(rows)) + len(namespace)
