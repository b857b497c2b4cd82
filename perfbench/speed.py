"""Host speed reference: how fast the host runs right now.

The benchmark runs on a few cores of a shared host. Other work on the
host slows every core down, at times by a factor of two for minutes on
end, and the CPU time of a process slows down with its wall time. Such
spells outlast a benchmark run, so the median over a run does not remove
them.

``measure`` times a fixed piece of reference work in the benchmark's
own process: interpreter work, unmarshalling code (the bulk of an
import), small complex matrix products (as in the exact propagation) and
touching fresh memory (as at process start). The benchmark measures it
right before and right after each invocation, and divides the
invocation's times by the slowdown ``reference time / REFERENCE_S``.
The times it reports are therefore seconds at the reference speed, the
speed at which the reference work takes ``REFERENCE_S``. The reference
work does not depend on ionnet, so a change to the program moves the
reported times as it moves the real ones.
"""

import inspect
import marshal
import statistics
import time

import numpy as np

# Seconds the reference work takes when a 2-vCPU virtual machine (Intel
# Xeon, 2.1 GHz) is quiet: runs have measured median slowdowns from 0.9 to
# 1.6 against it. A fixed constant, so that runs at different moments and
# on different commits share one scale.
REFERENCE_S = 0.0022

_CODE = marshal.dumps(compile(inspect.getsource(inspect), "inspect", "exec"))
_MATRIX = np.random.default_rng(0).random((8, 8)) + 1j * np.random.default_rng(1).random((8, 8))


def _interpreter():
    table = {f"k{i}": (i, str(i), [i] * 3) for i in range(3000)}
    total = sum(len(k) + v[0] for k, v in table.items())

    class Item:
        def __init__(self, x):
            self.x = x

        def value(self):
            return self.x + 1

    return total + sum(Item(i).value() for i in range(2000))


def _unmarshal():
    for _ in range(8):
        marshal.loads(_CODE)


def _matrices():
    a = _MATRIX
    for _ in range(600):
        a = a @ _MATRIX
        a = a / np.abs(a).max()
    return a


def _memory():
    block = bytearray(16 << 20)
    block[:: 1 << 12] = b"\x01" * len(block[:: 1 << 12])
    return bytes(block[: 1 << 20]).count(1)


KERNELS = (_interpreter, _unmarshal, _matrices, _memory)


def measure(repeats=7):
    """Seconds of the reference work: the geometric mean over the kernels
    of each kernel's median time over ``repeats`` runs."""
    product = 1.0
    for kernel in KERNELS:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        product *= statistics.median(times)
    return product ** (1.0 / len(KERNELS))
