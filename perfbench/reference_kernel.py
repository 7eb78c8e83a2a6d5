"""Reference kernel that tracks host speed; see HostReference in run.py.

Runs as a helper process of run.py, so that its arrays do not count in
the workload's peak RSS. For every line read on standard input it runs
the kernel three times and prints the median time in seconds. The
kernel uses numpy only, never fqlab, and mixes the resources the
workloads use: a 4 MB complex FFT round trip, a 64 MB memory sweep and
interpreter-bound small-matrix products, about 40 ms in all.
"""

import statistics
import sys
import time

import numpy as np

REPEATS = 3


def main():
    rng = np.random.default_rng(0)
    fft = rng.normal(size=(512, 512)) * (1 + 1j)
    sweep = rng.normal(size=8_000_000)
    small = rng.normal(size=(4, 4))

    def kernel():
        np.fft.ifft2(np.fft.fft2(fft) * fft)
        sweep.sum()
        sweep.sum()
        acc = 0.0
        for _ in range(8000):
            acc += float((small @ small)[0, 0])
        return acc

    for _ in sys.stdin:
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - start)
        print(statistics.median(samples), flush=True)


if __name__ == "__main__":
    main()
