"""Independent oracles used to freeze expected values.

Deliberately naive implementations: fixed-grid composite Simpson quadrature
and direct double loops over customers.  They share no code with the package
paths they check.  Also the test id of a service law.
"""

import numpy as np


def simpson(f, a, b, m=20001):
    """Composite Simpson on a fixed grid (m odd)."""
    if b <= a:
        return 0.0
    xs = np.linspace(a, b, m)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / (m - 1)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())


def simpson_rule(a, b, m=20001):
    """Nodes and weights of the same composite Simpson rule, for integrands
    evaluated on the whole node array at once."""
    xs = np.linspace(a, b, m)
    w = np.full(m, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return xs, w * ((b - a) / (m - 1) / 3.0)


def brute_queue_fields(tau, eta, t, y):
    """(Qr, Qe, Qt, Wr) at one (t, y) by direct loops."""
    qr = qe = qt = 0
    wr = 0.0
    for a, s in zip(tau, eta):
        if a <= t:
            if a + s > t + y:
                qr += 1
            if a + s > t:
                qt += 1
                if a > t - y:
                    qe += 1
            wr += max(a + s - t - y, 0.0)
    return qr, qe, qt, wr


def law_id(law):
    """Test id of a service law: its class name, with the one-atom
    FiniteAtoms named as the deterministic law it is."""
    name = type(law).__name__
    if name == "FiniteAtoms" and len(law.atoms) == 1:
        return "Deterministic"
    return name
