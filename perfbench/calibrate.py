"""A fixed reference computation, timed in a fresh process beside the
program to measure how fast the host runs at that moment.

    python perfbench/calibrate.py

It imports nothing from borg_spectra, so no change to the program moves
it.  Its mix follows the workloads: interpreter start and numpy import,
float-to-text formatting, a stacked eigensolve of small Hermitian
matrices, and one dense symmetric eigensolve on the BLAS threads.
"""
import numpy as np

rng = np.random.default_rng(0)
values = rng.uniform(-1.0, 1.0, 60_000)
text = "\n".join(f"{i},{x!r}" for i, x in enumerate(values))
small = rng.standard_normal((8192, 6, 6)) + 1j * rng.standard_normal((8192, 6, 6))
small_eigs = np.linalg.eigvalsh(small + small.conj().transpose(0, 2, 1))
dense = rng.standard_normal((640, 640))
dense_eigs = np.linalg.eigvalsh(dense + dense.T)
print(len(text), float(small_eigs.sum().real + dense_eigs.sum()))
