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


def flow_oracle(masses, u, v, family, a):
    """Independent re-evaluation of the flow formula (no package code)."""
    d = masses[u] - masses[v]
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


def reference_run(x0, assignment, tol=1e-10, max_iters=10**6):
    """Per-state convergence loop as written before batching: (limit x, iterations, converged).

    Steps one state with ``kernel.flows``/``kernel.net`` and stops at the
    first L1 step below ``tol``; the oracle for the batched kernel.
    """
    from opinionflow.dynamics import kernel_for

    kernel = kernel_for(x0, assignment)
    x = x0.x.copy()
    for t in range(max_iters):
        x_new = x + kernel.net(kernel.flows(x, 0.0))
        x_new /= x_new.sum()
        step_l1 = float(np.abs(x_new - x).sum())
        x = x_new
        if step_l1 < tol:
            return x, t, True
    return x, max_iters, False


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
    from opinionflow.graph import choose_attachment
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
                neighbors = choose_attachment(graph, config.attachment,
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
    terminal = type(x0)(graph, ids, x, config.horizon)
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
