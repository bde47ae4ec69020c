"""Adam over a dict of named float64 parameter arrays."""

from __future__ import annotations

from typing import Mapping

import numpy as np

# The standard moment decay rates and denominator guard; no caller sets them.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam with bias correction; updates parameters in place.

    All parameter groups share one step counter, and every group is
    decayed and updated densely on every step, which keeps training runs
    reproducible. A group's gradient may be given on some of its rows
    only (``rows``); its first- and second-moment terms are then added
    on those rows alone. Every other row would have gained exactly +0.0,
    so the result is bit-identical to a dense gradient that is zero on
    every other row.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

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
        for name, p in self.params.items():
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            r = rows.get(name) if rows else None
            m *= BETA1
            v *= BETA2
            if r is None:
                m += (1.0 - BETA1) * g
                v += (1.0 - BETA2) * np.square(g)
            else:
                m[r] += (1.0 - BETA1) * g
                v[r] += (1.0 - BETA2) * np.square(g)
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in that order,
            # on two temporaries
            step = np.divide(m, bc1)
            step *= self.lr
            denom = np.divide(v, bc2)
            np.sqrt(denom, out=denom)
            denom += EPS
            step /= denom
            p -= step
