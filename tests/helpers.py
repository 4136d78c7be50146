"""Shared fixtures-by-hand: random problem setups and independent oracles."""

import numpy as np

from opinionflow import (InfluenceAssignment, InfluenceGraph, PopulationState,
                         cubic, linear, soft)


def edge_state(xu, xv):
    g = InfluenceGraph([0, 1], [(0, 1)])
    return PopulationState.from_masses(g, [xu, xv])


def path_acb():
    """3-path with endpoints 0, 1 and middle 2 (the A-C-B layout)."""
    return InfluenceGraph([0, 1, 2], [(0, 2), (1, 2)])


def flow_oracle(masses, u, v, family, a, delta=0.0):
    """Independent re-evaluation of the flow formula (no package code): the
    mass moving from v into u, zero when |x_u - x_v| <= delta."""
    d = masses[u] - masses[v]
    if abs(d) <= delta:
        return 0.0
    if family == "linear":
        F = a * d
    elif family == "cubic":
        F = a * d**3
    elif family == "soft":
        F = a * d / (1 + abs(d))
    else:
        raise ValueError(family)
    return masses[u] * masses[v] * F


def random_setup(rng, n_max=16, diffeo=False):
    """Random (state, assignment, family, a) with simplex- or diffeo-admissible F."""
    n = int(rng.integers(2, n_max + 1))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
    g = InfluenceGraph(range(n), edges)
    family = ("linear", "cubic", "soft")[rng.integers(3)]
    if diffeo:
        a = {"linear": rng.uniform(0.05, 0.49), "cubic": rng.uniform(0.05, 0.49),
             "soft": rng.uniform(0.1, 0.98)}[family]
    else:
        a = {"linear": rng.uniform(0.05, 1.0), "cubic": rng.uniform(0.05, 1.0),
             "soft": rng.uniform(0.1, 2.0)}[family]
    f = {"linear": linear, "cubic": cubic, "soft": soft}[family](a)
    draws = rng.exponential(size=n)
    x = draws / draws.sum()
    state = PopulationState(g, tuple(range(n)), x)
    return state, InfluenceAssignment(f), family, a


def match_multisets(a, b, tol):
    """Greedy nearest-neighbor matching of two complex multisets."""
    a = list(a)
    b = list(b)
    assert len(a) == len(b)
    for za in a:
        dists = [abs(za - zb) for zb in b]
        k = int(np.argmin(dists))
        assert dists[k] < tol, f"eigenvalue {za} unmatched (best {dists[k]:g})"
        b.pop(k)


def connected_graph_atlas(n_max):
    """All connected graphs on 1..n_max vertices, one per isomorphism class.

    Graphs are edge-bitmasks canonicalized by minimizing over all vertex
    permutations (vectorized over the whole mask space); returned as
    (n, edge list) pairs.
    """
    import itertools

    atlas = []
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        m_bits = len(pairs)
        bit_of = {e: k for k, e in enumerate(pairs)}
        masks = np.arange(1 << m_bits, dtype=np.int64)
        bits = (masks[:, None] >> np.arange(m_bits)) & 1       # (2^M, M)
        canon = masks.copy()
        for p in itertools.permutations(range(n)):
            pm = np.array([bit_of[tuple(sorted((p[u], p[v])))] for u, v in pairs],
                          dtype=np.int64)
            canon = np.minimum(canon, bits @ (np.int64(1) << pm))

        def is_connected(mask):
            adj = [0] * n
            for k, (u, v) in enumerate(pairs):
                if mask >> k & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            seen = frontier = 1
            while frontier:
                nxt = 0
                for u in range(n):
                    if frontier >> u & 1:
                        nxt |= adj[u]
                frontier = nxt & ~seen
                seen |= nxt
            return seen == (1 << n) - 1

        for rep in np.unique(canon):
            rep = int(rep)
            if is_connected(rep):
                atlas.append((n, [pairs[k] for k in range(m_bits) if rep >> k & 1]))
    return atlas


def _edge_functions(kernel):
    fns = [None] * kernel.m
    for f, idx in kernel._groups:
        for e in np.arange(kernel.m)[idx]:
            fns[e] = f
    return fns


def assert_same_kernel(a, b):
    """Two edge kernels hold the same vertex order, edges and functions."""
    assert tuple(a.ids) == tuple(b.ids) and (a.n, a.m) == (b.n, b.m)
    for got, want in ((a.iu, b.iu), (a.iv, b.iv)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert all(f is g for f, g in zip(_edge_functions(a), _edge_functions(b), strict=True))


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, failing at the first line that differs: pytest's own
    report on two long unequal texts is a full diff, which takes minutes."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    first = next((i for i, pair in enumerate(zip(got_lines, want_lines))
                  if pair[0] != pair[1]), None)
    assert first is None, f"line {first}: {got_lines[first]!r} != {want_lines[first]!r}"
    assert len(got_lines) == len(want_lines)
    assert got == want


def reference_run(x0, assignment, tol=1e-10, max_iters=10**6, trace=None):
    """Per-state convergence loop as written before batching: (limit x, iterations, converged).

    Steps one state with ``kernel.flows``/``kernel.net`` and stops at the
    first L1 step below ``tol`` (never, if ``tol`` is 0); the oracle for the
    batched kernel. ``trace``, a list, receives the state after every step.
    """
    from opinionflow.dynamics import kernel_for

    kernel = kernel_for(x0, assignment)
    x = x0.x.copy()
    for t in range(max_iters):
        x_new = x + kernel.net(kernel.flows(x, 0.0))
        x_new /= x_new.sum()
        step_l1 = float(np.abs(x_new - x).sum())
        x = x_new
        if trace is not None:
            trace.append(x)
        if step_l1 < tol:
            return x, t, True
    return x, max_iters, False


def jacobian_fd(state, assignment):
    """Central-difference Jacobian of the raw (un-renormalized) update map,
    step 1e-6: the oracle for the analytic ``jacobian``. It perturbs each
    coordinate off the simplex, which the update map tolerates in a
    neighborhood."""
    from opinionflow.dynamics import kernel_for

    kernel = kernel_for(state, assignment)

    def update(x):
        return x + kernel.net(kernel.flows(x))

    shift = np.eye(kernel.n) * 1e-6         # row j moves coordinate j: one batch
    return (update(state.x + shift) - update(state.x - shift)).T / 2e-6


def birth_steps(config):
    """The steps of ``run_evolution(x0, config)`` that have a birth, whatever
    x0 is: the steps 0 .. horizon-1 whose birth coin falls below p."""
    from opinionflow.seeding import PHASE_BIRTH, run_coins

    coins = run_coins([config.seed], 0, config.horizon, PHASE_BIRTH)[0]
    return np.flatnonzero(coins < config.p).tolist()


def choose_attachment(ids, policy, rng):
    """``attachment_indices`` as a set of the sorted vertex ids ``ids``."""
    from opinionflow.graph import attachment_indices

    return {ids[i] for i in attachment_indices(len(ids), policy, rng)}


def label_at(raster, weights):
    """Label of the ``BasinMap`` cell nearest to barycentric ``weights`` over its ids."""
    w = np.asarray(weights, dtype=float)
    i = min(max(int(round(w[0] * raster.resolution)), 0), raster.resolution)
    j = min(max(int(round(w[1] * raster.resolution)), 0), raster.resolution - i)
    return raster.rows[i][j]


def certificate_oracle(graph, x, theta):
    """The certified support of one state, set by set: the first top-k set
    (highest masses, ties by lower index) that is independent, dominates every
    other type, and whose lightest mass exceeds theta and the mass outside it
    (summed from the lightest up). None if no k qualifies."""
    ids = graph.vertex_list()
    order = sorted(range(len(ids)), key=lambda i: (-x[i], i))
    for k in range(1, len(ids) + 1):
        top = {ids[i] for i in order[:k]}
        outside = 0.0
        for i in reversed(order[k:]):
            outside += x[i]
        light = x[order[k - 1]]
        if (graph.is_independent_set(top) and light > theta and outside < light
                and all(graph.neighbors(v) & top for v in set(ids) - top)):
            return top
    return None


def reference_evolution(x0, config):
    """The evolution run as written before the edge kernel followed edits.

    Every step rebuilds the edge arrays in canonical ``graph.edges()`` order,
    the birth and death phases go through a ``{id: mass}`` dict, and every
    removal checks connectivity first and then bridges leftover components
    through their lowest ids. The oracle for ``run_evolution``: both must
    write the same timeline, byte for byte.
    """
    from opinionflow.errors import ConfigurationError
    from opinionflow.evolution import BirthEvent, DeathEvent, StepRecord, Timeline
    from opinionflow.seeding import PHASE_ATTACH, PHASE_BIRTH, RunStreams

    def migrate(x, graph):
        index = {v: i for i, v in enumerate(graph.vertex_list())}
        edges = graph.edges()
        iu = np.array([index[u] for u, v in edges], dtype=np.intp)
        iv = np.array([index[v] for u, v in edges], dtype=np.intp)
        groups = {}
        for e, (u, v) in enumerate(edges):
            f = config.assignment.function_for(u, v)
            groups.setdefault(id(f), (f, []))[1].append(e)
        d = x[iu] - x[iv]
        if len(groups) == 1:
            (f, _), = groups.values()
            F = np.asarray(f._eval_unchecked(d), dtype=float)
        else:
            F = np.empty_like(d)
            for f, idx in groups.values():
                F[idx] = f._eval_unchecked(d[idx])
        flows = x[iu] * x[iv] * F
        if config.delta > 0.0 and len(edges):
            flows[np.abs(d) <= config.delta] = 0.0
        x_new = x + (np.bincount(iu, flows, len(x)) - np.bincount(iv, flows, len(x)))
        return x_new / x_new.sum(), bool(np.any(flows != 0.0))

    def rebuild(graph, masses):
        ids = tuple(graph.vertex_list())
        x = np.array([masses[v] for v in ids])
        total = x.sum()
        assert abs(total - 1.0) <= 1e-12
        return ids, x / total

    def remove(graph, v):
        if not graph.is_connected():
            raise ValueError("remove_type expects a connected graph")
        graph.remove_type(v, config.rewiring)
        comps = graph.connected_components()
        anchors = sorted(min(c) for c in comps)
        for a, b in zip(anchors, anchors[1:]):
            graph.add_edge(a, b)

    graph = x0.graph.copy()
    if not graph.is_connected():
        raise ConfigurationError("birth/death mode needs a connected starting graph")
    ids, x = tuple(x0.ids), x0.x.copy()
    streams = RunStreams(config.seed)
    records = []
    for step in range(config.horizon):
        phi_before = float(np.dot(x, x))
        min_mass_before = float(x.min())
        x, active = migrate(x, graph)
        phi_mig = float(np.dot(x, x))
        birth = None
        if config.p > 0:
            rng = streams.stream(step, PHASE_BIRTH)
            if rng.random() < config.p:
                z = config.distribution.sample(rng, len(ids), config.beta_min, config.beta_max)
                newborn = float(np.dot(z, x))
                neighbors = choose_attachment(graph.vertex_list(), config.attachment,
                                              streams.stream(step, PHASE_ATTACH))
                new_id = graph.add_type(neighbors)
                masses = {v: float(m * (1.0 - zv)) for v, m, zv in zip(ids, x, z)}
                masses[new_id] = newborn
                birth = BirthEvent(new_id, newborn, dict(zip(ids, map(float, z))),
                                   sorted(neighbors))
                ids, x = rebuild(graph, masses)
        phi_birth = float(np.dot(x, x))
        deaths = []
        if len(ids) >= 2 and float(x.min()) <= config.epsilon:
            masses = {v: float(m) for v, m in zip(ids, x)}
            while len(masses) >= 2:
                dying = min(((m, v) for v, m in masses.items() if m <= config.epsilon),
                            default=None)
                if dying is None:
                    break
                m, v = dying
                recipients = sorted(graph.neighbors(v))
                share = m / len(recipients)
                for u in recipients:
                    masses[u] += share
                del masses[v]
                remove(graph, v)
                deaths.append(DeathEvent(v, m, recipients))
            if deaths:
                ids, x = rebuild(graph, masses)
        records.append(StepRecord(step, phi_before, phi_mig, phi_birth, float(np.dot(x, x)),
                                  active, min_mass_before, birth, deaths, len(graph)))
    terminal = type(x0)(graph, ids, x)
    return Timeline(records, terminal, config.seed)


def reference_phi_sweep(config, graph, trials, root_seed):
    """The phi-bounds sweep as the command line wrote it out by hand.

    Trial i runs with seed trial_seed(root_seed, 2i) from a simplex point
    drawn with trial_seed(root_seed, 2i+1); returns one report per trial.
    The oracle for ``verify_phi_bounds_sweep``.
    """
    from dataclasses import replace

    from opinionflow import run_evolution, sample_state, verify_phi_bounds
    from opinionflow.seeding import generator, trial_seed

    reports = []
    for i in range(trials):
        cfg_i = replace(config, seed=trial_seed(root_seed, 2 * i))
        x0_i = sample_state(graph, generator(trial_seed(root_seed, 2 * i + 1)))
        reports.append(verify_phi_bounds(run_evolution(x0_i, cfg_i), cfg_i))
    return reports
