"""Host-speed probe: a fixed pure-Python job the benchmark times as a
subprocess, next to every request.

    python3 perfbench/calibrate.py

On a shared host the speed a process gets drifts by tens of percent over
minutes, and it moves every request of a run together.  ``run.py``
divides its timings by the mean wall time of this probe over the same
run, so the reported seconds are seconds at the speed where the probe
takes ``REFERENCE_S``.  The probe does what a request does at small
scale (interpreter start, a mediant descent over integer pairs with a
dict, ``Fraction`` sums, a sort) and imports nothing from
``farey_brocot``, so a change to the program cannot move it.
"""

from __future__ import annotations

from fractions import Fraction

# Wall seconds the probe subprocess is taken to need at reference speed:
# its mean on a 2-CPU Xeon VM with Python 3.11, rounded.  Only the
# ratio between two runs' figures matters, and it does not depend on it.
REFERENCE_S = 0.13

DENOMINATOR_CAP = 450


def probe(cap: int = DENOMINATOR_CAP) -> int:
    """Walk the Stern-Brocot tree down to denominator `cap`; return the
    number of fractions seen."""
    seen = {}
    stack = [((0, 1), (1, 1))]
    while stack:
        (a, b), (c, d) = stack.pop()
        m = (a + c, b + d)
        if m[1] > cap:
            continue
        seen[m] = seen.get(m, 0) + 1
        stack.append(((a, b), m))
        stack.append((m, (c, d)))
    total = sum(Fraction(1, q * q) for _, q in list(seen)[:300])
    order = sorted(seen, key=lambda m: m[0] * 7919 % m[1])
    return len(order) + (total > 0)


if __name__ == "__main__":
    probe()
