"""Nelder-Mead simplex minimization, the one optimizer of the channel search.

A port of ``_minimize_neldermead`` from scipy 1.17.1 (BSD-3-Clause,
Copyright (c) 2001-2002 Enthought, Inc. and 2003 onwards the SciPy
Developers), itself the method of Nelder & Mead, Comput. J. 7, 308 (1965).
Only the case the search uses is kept: standard coefficients, no bounds,
the default initial simplex and an iteration cap with no evaluation cap.
Every float operation, comparison and sort is scipy's, in scipy's order, so
``minimize`` returns the bits that ``scipy.optimize.minimize(fun, x0,
method="Nelder-Mead", options={"maxiter": ..., "xatol": ..., "fatol": ...})``
returns as ``fun``; ``tests/test_channels.py`` holds it to that.
"""

from __future__ import annotations

import numpy as np

_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5  # reflection, expansion, contraction, shrink
_NONZDELT, _ZDELT = 0.05, 0.00025  # initial simplex steps: relative, and at a zero entry


def minimize(fun, x0, *, maxiter: int, xatol: float, fatol: float) -> float:
    """Smallest value of ``fun`` found by Nelder-Mead from ``x0``; stops when
    the simplex spans at most ``xatol`` in x and ``fatol`` in value, or after
    ``maxiter`` iterations.  ``fun`` gets a fresh copy of each point."""
    x0 = np.asarray(x0, dtype=float).flatten()
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + _NONZDELT) * y[k]
        else:
            y[k] = _ZDELT
        sim[k + 1] = y

    def f(x):
        return fun(np.copy(x))

    fsim = np.full((N + 1,), np.inf, dtype=float)
    for k in range(N + 1):
        fsim[k] = f(sim[k])
    # scipy sorts twice here; an unstable argsort can order ties differently
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break

        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + _RHO) * xbar - _RHO * sim[-1]
        fxr = f(xr)

        if fxr < fsim[0]:
            xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = (1 - _PSI) * xbar + _PSI * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, N + 1):
                    sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return np.min(fsim)
