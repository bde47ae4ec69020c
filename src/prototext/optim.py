"""Adam over a dict of named float64 parameter arrays.

A step whose parameter write provably moves no element skips that
write; the result is bit-identical to writing it. The proof, with
``u = 2**-53`` the unit roundoff and ``eta = 2**-1075`` the largest
absolute rounding error in the subnormal range:

* The write is ``p -= s`` with ``s = fl(fl(fl(m / bc1) * lr) / d)`` and
  ``d = fl(sqrt(fl(v / bc2)) + EPS) >= EPS``, since ``v >= 0`` and
  rounding is monotone. (``v`` is NaN only where a NaN gradient made
  ``m`` NaN too, and a NaN ``m`` never becomes a number again.) Each of
  the three roundings errs by at most ``u * |x| + eta``, so with
  ``K = lr / (bc1 * EPS)``

      |s| <= (|m| + 2 * eta) * K * (1 + u)**3 + eta * (1 + u) / EPS + eta.

  The step tests ``(M + 2**-1073) * K * (1 + 2**-40) + 2**-1000``, with
  ``M = max |m|`` over every group: the factor ``1 + 2**-40`` covers the
  ``(1 + u)**3`` and the roundings of the test's own products, and
  ``2**-1000`` the last two terms.
* Where ``|s| <= |p| * 2**-55`` and ``p != 0``, ``fl(p - s) == p``: the
  exact difference lies within a quarter of the spacing above ``|p|``
  and within half of the spacing below it (the two differ when ``|p|``
  is a power of two), so it rounds back to ``p``.
* An element with ``m == +0.0`` has ``s == +0.0``, and ``p - (+0.0)``
  is ``p`` for every ``p``, ``-0.0`` included (a NaN keeps its bits).
  An element with ``m == -0.0`` has ``s == -0.0``, and
  ``-0.0 - (-0.0)`` is ``+0.0``. So ``P = min |p|`` is taken over the
  elements with ``m != 0`` or a set sign bit, and a ``p`` of ``±0.0``
  among them makes ``P = 0``.

So the write is skipped when the test is below ``P * 2**-55`` and ``P``
lies in ``(2**-900, inf)``; there ``P * 2**-55`` is a normal number,
computed exactly. A NaN or infinite ``M`` or ``P`` fails the test and
never skips.

After a zero-gradient step, ``M`` needs no scan when the step before was
one too: then ``M = fl(BETA1 * M_prev)``, bit for bit. Such a step sets
each ``m`` to ``fl(BETA1 * m_prev)``, plus a zero on a group given
whole, which can turn a ``-0.0`` into ``+0.0`` and changes no ``|m|``.
Round-to-nearest is symmetric, ``fl(-x) == -fl(x)``, so
``|fl(BETA1 * x)| == fl(BETA1 * |x|)``; it is monotone, so the largest
``fl(BETA1 * |x|)`` is ``fl(BETA1 * max |x|)``. A NaN stays NaN and an
infinity stays infinite through the product, as through the scan. A step
with a nonzero gradient forgets ``M``, and the next zero-gradient step
scans again.

The moment updates and the write run in place and on two temporaries
held in a :class:`StepBuffers`, grown to the largest group, in the same
operations and order as on fresh arrays: a step allocates no array of a
group's size.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np


class StepBuffers:
    """The arrays a training run holds for its steps' intermediates: one per
    name, grown to the largest shape asked for. ``buffers(name, *shape)`` is a
    C-contiguous float64 array of ``shape`` with stale contents, valid until
    ``name`` is asked for again. After the first records of a run, a step
    allocates no array whose size grows with its sequence, so the heap it
    frees never shrinks and regrows from step to step."""

    def __init__(self):
        self._held: dict[str, np.ndarray] = {}

    def __call__(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        held = self._held.get(name)
        if held is None or held.size < size:
            held = self._held[name] = np.empty(size)
        return held[:size].reshape(shape)


# The standard moment decay rates and denominator guard; no caller sets them.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam with bias correction; updates parameters in place.

    All parameter groups share one step counter, and every group's
    moments are decayed on every step, which keeps training runs
    reproducible. A group's gradient may be given on some of its rows
    only (``rows``); its first- and second-moment terms are then added
    on those rows alone. Every other row would have gained exactly +0.0,
    so the result is bit-identical to a dense gradient that is zero on
    every other row.

    The parameter write is dense, except on a step that it provably
    leaves unchanged (see the module docstring): that proof is tried
    only when the step names its ``rows``, every row set is empty and
    every other group's gradient is zero, so a step without ``rows``
    pays nothing for it. ``skipped`` counts those steps. The smallest
    ``|p|`` the proof reads is kept from one such step to the next, so
    the parameters must change only through :meth:`step`.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}
        self._buffers = StepBuffers()
        self._skipped = 0
        # P of the module docstring, kept while no write and no nonzero
        # gradient has happened since it was taken
        self._floor: float | None = None
        # M of the module docstring after the last step, kept while every
        # step since it was taken had a zero gradient
        self._top: float | None = None

    @property
    def skipped(self) -> int:
        """The steps whose parameter write was skipped as moving no element."""
        return self._skipped

    def step(
        self,
        grads: Mapping[str, np.ndarray],
        rows: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """One update. ``grads[name]`` covers the whole group, or for a
        group named in ``rows`` only the distinct rows ``rows[name]``, in
        that order."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        zero = (
            rows is not None
            and all(len(r) == 0 for r in rows.values())
            and not any(grads[k].any() for k in self.params if k not in rows)
        )
        if not zero:
            self._top = None
        for name, p in self.params.items():
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            r = rows.get(name) if rows else None
            m *= BETA1
            v *= BETA2
            if r is None:
                # m += (1 - BETA1) * g and v += (1 - BETA2) * g**2, on a temporary
                t = self._buffers("step", *p.shape)
                np.multiply(g, 1.0 - BETA1, out=t)
                m += t
                np.square(g, out=t)
                t *= 1.0 - BETA2
                v += t
            else:
                m[r] += (1.0 - BETA1) * g
                v[r] += (1.0 - BETA2) * np.square(g)
            if not zero:
                self._write(p, m, v, bc1, bc2)
        if zero:
            if self._moves_nothing(bc1):
                self._skipped += 1
                return
            for name, p in self.params.items():
                self._write(p, self._m[name], self._v[name], bc1, bc2)
        self._floor = None

    def _write(self, p: np.ndarray, m: np.ndarray, v: np.ndarray, bc1: float, bc2: float) -> None:
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in that order,
        # on two temporaries
        step, denom = self._buffers("step", *p.shape), self._buffers("denom", *p.shape)
        np.divide(m, bc1, out=step)
        step *= self.lr
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        p -= step

    def _moves_nothing(self, bc1: float) -> bool:
        """Whether the write of this step's moments provably leaves every parameter as it is."""
        if self._top is None:
            # max and min instead of abs, which would copy m; np.max keeps a NaN
            top = float(np.max([np.maximum(m.max(initial=0.0), -m.min(initial=0.0))
                                for m in self._m.values()]))
        else:
            top = BETA1 * self._top
        self._top = top
        reach = (top + 2.0**-1073) * (self.lr / (bc1 * EPS)) * (1.0 + 2.0**-40) + 2.0**-1000
        if self._floor is None:
            self._floor = math.inf
            for name, p in self.params.items():
                m = self._m[name]
                moving = np.signbit(m)
                moving |= m != 0.0
                low = np.min(np.abs(p), where=moving, initial=math.inf)
                self._floor = float(np.minimum(self._floor, low))
        return 2.0**-900 < self._floor < math.inf and reach < self._floor * 2.0**-55
