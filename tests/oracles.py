"""Independent oracles used to freeze expected values.

Deliberately naive implementations: fixed-grid composite Simpson quadrature,
arrival epochs drawn from a generator batch by batch, direct loops over
customers, the limit engine's service sheet and splitting motion built node
by node on the engine's nodes and masses, and the workload columns by the
trapezoid rule.  They share no code with the package paths they check; the
epoch oracle draws through the law's own sampler and rate inverse, which it
does not check.  Also the test id of a service law.
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


def generator_epochs(model, n, horizon, rng):
    """Arrival epochs of one replication of an ``ArrivalModel`` drawn from a
    generator, batch after batch, as before blocks of replications existed:
    the interarrivals, rescaled to mean 1, are summed on from the last level
    until one passes n abar(horizon), and the levels below it are inverted.
    The reference for a row whose first batch ends short of that level."""
    total = n * model.rate_fn.cumulative(float(horizon))
    batch = max(int(total * 1.1 + 6.0 * math.sqrt(total + 1.0)), 16)
    mean = model.interarrival.moments().mean
    chunks, pos = [], 0.0
    while pos <= total:
        draws = np.asarray(model.interarrival.sample(rng, size=batch), dtype=float) / mean
        chunks.append(pos + np.cumsum(draws))
        pos = chunks[-1][-1]
    levels = np.concatenate(chunks)
    return model.rate_fn.invert_cumulative(levels[levels <= total] / n, float(horizon))


def brute_arrivals(tau, t):
    """The arrivals by t, by a loop over customers."""
    return sum(a <= t for a in tau)


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


def covering(eng, j):
    """The window columns of a ``paths._LimitEngine`` that hold node j:
    the windows (t - length, t] with the node inside."""
    return np.flatnonzero((eng.s0[j] > eng.t - eng.length) & (eng.s0[j] < eng.t))


def split_component_paths(eng, rng):
    """X3 of a ``paths._LimitEngine`` on every window column: per node, the
    (P, m+1) increments of the splitting motion, of covariance mu_n times
    the splitting covariance through its eigen-root, added into each
    covering window times each category's value at the window's shift."""
    P, dec = eng.n_paths, eng.dec
    x3 = np.zeros((P, len(eng.t)))
    if dec.p_d == 0.0:
        return x3
    evals, evecs = np.linalg.eigh(dec.split_covariance())
    assert evals.min() >= -1e-12
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))
    z = rng.standard_normal((P, len(eng.s0), len(dec.atoms) + 1))
    for j, s in enumerate(eng.s0):
        ds = (z[:, j] @ root.T) * math.sqrt(eng.mu[j])
        for g in covering(eng, j):
            x = eng.t[g] + eng.y[g] - s
            if dec.p_c > 0.0:
                x3[:, g] += ds[:, 0] * dec.continuous_part.sf(x)
            for i, (loc, _) in enumerate(dec.atoms):
                x3[:, g] += ds[:, i + 1] * (loc > x)
    return x3


def unit_weights(sampler, eng):
    """The (rows, columns) weight matrix of a sampler linear in its normals
    (``sampler(eng, rng)``): count the normals it draws per path, then run it
    on that many paths whose normals are, in draw order, the columns of an
    identity, so path i is the response to normal i alone."""
    class Unit:
        def __init__(self, eye=None):
            self.eye, self.used = eye, 0

        def standard_normal(self, shape):
            k = math.prod(shape[1:])
            if self.eye is None:
                out = np.zeros(shape)
            else:
                out = self.eye[:, self.used:self.used + k].reshape(shape).copy()
            self.used += k
            return out

    count = Unit()
    eng.n_paths = 1
    sampler(eng, count)
    eng.n_paths = count.used
    return sampler(eng, Unit(np.eye(count.used)))


def wr_fold(cols, grid, xgrid):
    """Window columns (rows, n + T X) to output columns (rows, n + T Y): the
    first n as they are, then Wr(t, y) = int_y^xmax Qr(t, x) dx by the
    trapezoid rule over the x-columns of each t (0 for y past xmax)."""
    X = len(xgrid)
    n = cols.shape[1] - len(grid.t) * X
    wr = np.zeros((len(cols), len(grid.t), len(grid.y)))
    for i in range(len(grid.t)):
        qx = cols[:, n + i * X:n + (i + 1) * X]
        for j, y in enumerate(grid.y):
            if y <= xgrid[-1]:
                lo = int(np.flatnonzero(np.isclose(xgrid, y))[0])
                wr[:, i, j] = np.trapezoid(qx[:, lo:], xgrid[lo:], axis=1)
    return np.concatenate((cols[:, :n], wr.reshape(len(cols), len(grid.t) * len(grid.y))), axis=1)


def law_id(law):
    """Test id of a service law: its class name, with the one-atom
    FiniteAtoms named as the deterministic law it is."""
    name = type(law).__name__
    if name == "FiniteAtoms" and len(law.atoms) == 1:
        return "Deterministic"
    return name


def service_component_loop(eng, rng):
    """X2 of a ``paths._LimitEngine``, node by node: node j draws its (P,
    L_j) sheet increments over a strip of mass p_c mu_j, forms the Kiefer
    slice by a cumulative sum and subtracts it from every covering column at
    that column's level."""
    P = eng.n_paths
    x2 = np.zeros((P, len(eng.t)))
    if eng.dec.p_c == 0.0:
        return x2
    cdf = eng.dec.continuous_part.cdf
    mass = eng.dec.p_c * eng.mu
    for j, s in enumerate(eng.s0):
        act = covering(eng, j)
        if len(act) == 0:
            continue
        levels = np.asarray(cdf(eng.t[act] + eng.y[act] - s), dtype=float)
        uniq = np.unique(np.append(levels, 1.0))
        gaps = np.diff(uniq, prepend=0.0)
        incr = rng.standard_normal((P, len(uniq)))
        incr *= np.sqrt(np.maximum(gaps * mass[j], 0.0))[None, :]
        w_path = np.cumsum(incr, axis=1)
        v_path = w_path - uniq[None, :] * w_path[:, -1:]
        x2[:, act] -= v_path[:, np.searchsorted(uniq, levels)]
    return x2



def service_weights_loop(eng):
    """X2's weight rows of a ``paths._LimitEngine`` on its output columns,
    one node's strip at a time: the strip's distinct levels (and 1) by sort
    and compare, K by ``np.add.at`` of the covering windows' fold rows at
    their levels, then -scale_l (sum_{p >= l} K[p] - u^T K)."""
    rows, cols = np.nonzero(eng.covers)
    level = np.asarray(eng.dec.continuous_part.cdf(
        eng.t[cols] + eng.y[cols] - eng.s0[rows]), dtype=float)
    ends = np.searchsorted(rows, np.arange(len(eng.s0) + 1))
    for j, (a, b) in enumerate(zip(ends[:-1], ends[1:])):
        order = np.argsort(level[a:b], kind="stable")
        keys = np.append(level[a:b][order], 1.0)
        new = np.concatenate(([True], keys[1:] != keys[:-1]))
        u = keys[new]
        pos = np.empty(b - a, dtype=np.intp)
        pos[order] = np.cumsum(new)[:-1] - 1
        k = np.zeros((len(u), eng.fold.shape[1]))
        np.add.at(k, pos, eng.fold[cols[a:b]])
        w = np.cumsum(k[::-1], axis=0)[::-1]
        w -= u @ k
        w *= -np.sqrt(np.maximum(np.diff(u, prepend=0.0) * eng.dec.p_c * eng.mu[j],
                                 0.0))[:, None]
        yield w
