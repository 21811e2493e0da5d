"""Independent oracles used to freeze expected values.

Deliberately naive implementations: fixed-grid composite Simpson quadrature,
direct loops over customers, and the limit engine's service sheet
built interval by interval.  They share no code with the package paths they
check.  Also the test id of a service law.
"""

import math

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


def brute_arrivals(tau, eta, t, x, atoms=()):
    """At one (t, x), by a loop over customers: the arrivals by t, how many
    of them have a service <= x, and how many a service at each atom
    location."""
    arrived = below = 0
    at = [0] * len(atoms)
    for a, s in zip(tau, eta):
        if a <= t:
            arrived += 1
            below += s <= x
            for j, loc in enumerate(atoms):
                at[j] += s == loc
    return arrived, below, at


def brute_x1_x2(tau, eta, n, t, y, sf, center):
    """(X1, X2) of hat(Qr)_n at one (t, y) by a loop over customers: X2 sums
    1(tau + eta > t + y) - sf(t + y - tau) over the arrivals by t, X1 is the
    sum of sf(t + y - tau) less n * center, both over sqrt(n)."""
    x2 = sum_sf = 0.0
    for a, s in zip(tau, eta):
        if a <= t:
            f = sf(t + y - a)
            x2 += (a + s > t + y) - f
            sum_sf += f
    return (sum_sf - n * center) / math.sqrt(n), x2 / math.sqrt(n)


def law_id(law):
    """Test id of a service law: its class name, with the one-atom
    FiniteAtoms named as the deterministic law it is."""
    name = type(law).__name__
    if name == "FiniteAtoms" and len(law.atoms) == 1:
        return "Deterministic"
    return name


def service_component_loop(eng, rng):
    """X2 of a ``paths._LimitEngine``, interval by interval: interval j draws
    its (P, L_j) sheet increments, forms the Kiefer slice by a cumulative
    sum and subtracts it from every covering column at that column's level."""
    P = eng.n_paths
    x2 = np.zeros((P, len(eng.t)))
    if eng.dec.p_c == 0.0:
        return x2
    cdf = eng.dec.continuous_part.cdf
    dabar_c = eng.dec.p_c * eng.dabar
    for j, covered in enumerate(eng.covers):
        act = np.nonzero(covered)[0]
        if len(act) == 0:
            continue
        levels = np.asarray(cdf(eng.t[act] + eng.y[act] - eng.s1[j]), dtype=float)
        uniq = np.unique(np.append(levels, 1.0))
        gaps = np.diff(uniq, prepend=0.0)
        incr = rng.standard_normal((P, len(uniq)))
        incr *= np.sqrt(np.maximum(gaps * dabar_c[j], 0.0))[None, :]
        w_path = np.cumsum(incr, axis=1)
        v_path = w_path - uniq[None, :] * w_path[:, -1:]
        x2[:, act] -= v_path[:, np.searchsorted(uniq, levels)]
    return x2

