"""A probe of the host's current speed, to take its drift out of the timings.

The measuring host is a shared 2-core VM whose speed drifts on its own, by
up to 1.8x over minutes and by 20% from one second to the next, moving every
task together (DESIGN.md, Noise). ``probe()`` times a fixed slice of work
that lives in the benchmark, not in speclab, made of the kinds of work
speclab and sympy do: small- and big-integer modular arithmetic, Fraction
arithmetic, building, sorting and walking a dict of tuples, method calls
that allocate objects, and a small numpy pass. No change to speclab changes
the slice, so the ratio of a task's time to the probe times around it
measures speclab alone, in units of the slice. A mix tracks the program
better than any one kind of work: the kinds do not slow down alike.

``REF_S`` is close to the probe's median time on the 2-core host the
benchmark was written on. A time scaled by ``REF_S / probe time`` reads as
seconds on that host at that speed.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter

import numpy as np

REF_S = 0.010

_MOD = (1 << 89) - 1
_TABLE = list(range(257))
_ARR = np.arange(1 << 15, dtype=np.int64)
_KEYS = [random.Random(1).getrandbits(40) for _ in range(4000)]
_BIG, _BIG_MOD = 3**600, 7**500


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def step(self, x: int) -> _Pair:
        return _Pair(self.b, (self.a * x + self.b) % 1000003)


def _slice() -> int:
    x, s = 12345, 0
    for i in range(7000):
        x = (x * x + i) % _MOD
        s += _TABLE[x % 257]
    d = {}
    for i, k in enumerate(_KEYS):
        d[k % 100003] = (k, i)
    for a, b in sorted(d.values())[::3]:
        s += (a * a) % 1000003 + b
    p = _Pair(1, 2)
    for i in range(6000):
        p = p.step(i)
    f = Fraction(0)
    for i in range(1, 600):
        f += Fraction(i * i + 1, 2 * i + 3)
    y = _BIG
    for i in range(300):
        y = (y * (y + i)) % _BIG_MOD
    for a in (7919, 7927):
        s += int(np.count_nonzero((_ARR * a) % 65521 < 30000))
    return s + p.b + f.denominator % 7 + y % 7


def probe() -> float:
    """Wall seconds of one fixed slice of work, with the collector off so
    that the size of speclab's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        _slice()
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()
