"""Seeded inputs for the three workloads, in plain numpy.

Each workload is a fixed composition: the kinds and sizes of its ops do not
depend on the seed; the seed picks only their values and their order.  Every
run therefore times the same mix of op sizes, and each percentile is an order
statistic of that same mix whatever the seed.

A round starts with its largest op, which the worker also runs as its
untimed warm-up, so the peak RSS is reached from the same fresh heap in
every run instead of wherever the shuffle put the largest op.

Nothing here imports fenchelfix: the worker builds its inputs from these
specs, and the checkers rebuild the same specs from the seed on their own.
"""

from __future__ import annotations

import numpy as np

# classify's tags, as the report spells them
UAF = "UniqueAllFunctions"
UQIC = "UniqueInQuadraticInvertibleClass"
UC2 = "UniqueInC2Class"
QSE = "QuadraticSolutionExists"
NS = "NoSolution"
NQSC = "NoQuadraticSolutionInConstruction"
UND = "Undetermined"
SOLUTION_TAGS = (UAF, UQIC, UC2, QSE)
INCONSISTENT_TAGS = (NS, NQSC)

# solve-verify: (dim, ops per tag per round), plus one dim-32 problem for
# each tag in SOLVE_DIM32_TAGS.  Small dims set the median, where the
# per-point residual loops dominate; dims 16 and 32 set the tail, where the
# Jacobi eigensolver dominates.  The counts put p50 among the 15 dim-2
# problems of the positive definite tags and p90 among the 16 dim-16
# problems of the positive definite tags and QuadraticSolutionExists, each
# several ops clear of the edge of its cluster of like-cost ops, and keep one
# round near 9 s.
SOLVE_DIMS = ((2, 5), (3, 4), (4, 3), (6, 2), (8, 2), (16, 4))
SOLVE_TAG_ORDER = (UAF, UQIC, UC2, QSE, NS, NQSC, UND)
SOLVE_DIM32_TAGS = (UAF, UC2, NQSC, NS, UND)
# The matrices E come from this fixed seed, one stream per slot, and not from
# the workload seed.  The Jacobi eigensolver needs one sweep more or less
# depending on the matrix, about 14 % of a dim-16 op's time, so E drawn from
# the workload seed would move p90 from seed to seed.
SOLVE_MATRIX_SEED = 20170801
SCAN_POINTS = 100
RADIUS = 3.0

# grid-verify: (kind, reflected, nodes) slots.  Node counts run 1e3..4e5.
GRID_KINDS = (
    ("half_square", False),
    ("split_quadratic", False),
    ("split_quadratic", True),
    ("neg_log", False),
    ("neg_log", True),
    ("ray_indicator", False),
    ("ray_indicator", True),
    ("double_well", False),
)
# (nodes, kinds): every kind 4x at 1e3, 6x at 3e3 and 3x at 1e4, the double
# well at 1e5 and one convex member at 4e5, which sets the peak RSS.  The
# counts put p50 among the 3e3-node grids of the kinds whose hull keeps most
# nodes and p90 among their 1e4-node grids, each at least eight ops clear of
# the edge of its cluster of like-cost ops, and keep one round near 10 s.
GRID_SIZES = (
    (1_000, GRID_KINDS * 4),
    (3_000, GRID_KINDS * 6),
    (10_000, GRID_KINDS * 3),
    (100_000, GRID_KINDS[7:]),
    (400_000, GRID_KINDS[:1]),
)
GRID_WINDOW = (-5.0, 5.0)

# cli-cold: five config sets, each used twice per round, so every round
# repeats every config and the reports can be compared byte for byte.
CLI_SETS = 5
CLI_REPEATS = 2
CLI_DEMOS = ("energy", "skew", "log", "nonexistence", "lql")
CLI_KINDS = (
    "classify",
    "classify-nonsymmetric",
    "solve",
    "verify-quadratic",
    "verify-sampled",
    "conjugate",
) + tuple(f"demo-{name}" for name in CLI_DEMOS)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _symmetric(rng, eigs):
    u = _orthogonal(rng, len(eigs))
    m = (u * np.asarray(eigs)) @ u.T
    return 0.5 * (m + m.T)


def _tau_not_one(rng):
    return float(rng.uniform(0.3, 0.8) if rng.random() < 0.5 else rng.uniform(1.25, 4.0))


def make_problem(rng, tag: str, n: int, variant_index: int = 0, matrix_rng=None) -> dict:
    """Transform parameters built so that classify must return ``tag``.

    ``E`` is drawn from ``matrix_rng`` when given, everything else from
    ``rng``."""
    mrng = rng if matrix_rng is None else matrix_rng
    c = rng.uniform(-2.0, 2.0, n)
    w = rng.uniform(-2.0, 2.0, n)
    beta = float(rng.uniform(-2.0, 2.0))
    tau = 1.0
    candidate = None
    if tag in (UAF, UQIC, UC2):
        e = _symmetric(mrng, mrng.uniform(0.4, 3.0, n))
        if tag == UAF:
            w = c.copy()
        elif tag == UC2:
            tau = _tau_not_one(rng)
    elif tag == NS:
        e = -np.eye(n)
        beta = 0.0
        if variant_index % 2:
            c = np.zeros(n)
        else:
            w = np.zeros(n)
    elif tag in (NQSC, QSE):
        mags = mrng.uniform(0.4, 3.0, n)
        signs = np.where(np.arange(n) % 2 == 0, -1.0, 1.0)
        if variant_index % 3 == 2:
            signs = -np.ones(n)  # negative definite, but not -I
        e = _symmetric(mrng, mags * mrng.permutation(signs))
        if tag == QSE:
            if variant_index % 2:
                tau = _tau_not_one(rng)
            else:
                w = c.copy()  # tau = 1: consistent because w - c = 0
    elif tag == UND:
        sym = _symmetric(mrng, mrng.uniform(0.6, 3.0, n))
        skew = mrng.uniform(-0.3, 0.3, (n, n))
        e = sym + (skew - skew.T)
        tau = float(rng.uniform(0.5, 2.0))
        candidate = {"A": np.eye(n), "b": np.zeros(n), "gamma": 0.0}
    else:
        raise ValueError(f"unknown tag {tag!r}")
    return {
        "tag": tag,
        "dim": n,
        "E": e,
        "c": c,
        "w": w,
        "tau": tau,
        "beta": beta,
        "candidate": candidate,
    }


def _largest_first(specs: list, key: str) -> list:
    big = max(range(len(specs)), key=lambda i: specs[i][key])
    return [specs[big]] + specs[:big] + specs[big + 1 :]


def solve_round(seed: int) -> list[dict]:
    """The solve-verify round: one problem spec per op, in run order."""
    rng = np.random.default_rng([seed, 1])
    specs = []
    slot = 0
    for tag in SOLVE_TAG_ORDER:
        dims = SOLVE_DIMS + (((32, 1),) if tag in SOLVE_DIM32_TAGS else ())
        for n, count in dims:
            for k in range(count):
                matrix_rng = np.random.default_rng([SOLVE_MATRIX_SEED, slot])
                spec = make_problem(rng, tag, n, variant_index=k + n, matrix_rng=matrix_rng)
                spec["variant"] = ("Tsquared", "General", "SelfAdjoint")[slot % 3]
                spec["points"] = SCAN_POINTS
                spec["point_seed"] = int(rng.integers(0, 1_000_003))
                specs.append(spec)
                slot += 1
    return _largest_first([specs[i] for i in rng.permutation(len(specs))], "dim")


# ---------------------------------------------------------------------------
# grid-verify


def grid_values(spec: dict, x: np.ndarray) -> np.ndarray:
    """Vectorised values of a grid-verify function (+inf off its domain)."""
    t = -x if spec["reflected"] else x
    kind = spec["kind"]
    out = np.full(t.shape, np.inf)
    if kind == "half_square":
        out = 0.5 * t * t
    elif kind == "split_quadratic":
        lam = spec["lam"]
        out = np.where(t <= 0.0, 0.5 * lam * t * t, t * t / (2.0 * lam))
    elif kind == "neg_log":
        pos = t > 0.0
        out[pos] = -0.5 - np.log(t[pos])
    elif kind == "ray_indicator":
        out[t >= 0.0] = 0.0
    elif kind == "double_well":
        a = spec["a"]
        out = 0.25 * (t * t - a * a) ** 2
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return out


def make_grid_spec(rng, kind: str, reflected: bool, nodes: int) -> dict:
    """Grid, window and residual bound for one sampled function."""
    spec = {"kind": kind, "reflected": reflected, "nodes": nodes, "lam": None, "a": None}
    exclusion = 0.0
    bound_h = 2.0
    if kind == "neg_log":
        # the demo's layout: nodes h .. 1/(10h) hold 1/(10 h^2) points, and
        # the maximiser 1/x of every window slope -x stays on the grid
        h = float(np.sqrt(1.0 / (10.0 * nodes)))
        first = -nodes - 1 if reflected else 1
        exclusion = 10.0 * h
        bound_h = 4.0
    else:
        # The grid's half-width does not depend on the seed, so neither does
        # the op's cost: the window always holds the same share of the nodes.
        half = 6.0
        if kind == "split_quadratic":
            # every window slope's maximiser lam*s or s/lam stays on the grid
            spec["lam"] = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
            half = 11.0
        elif kind == "double_well":
            spec["a"] = float(rng.uniform(1.1, 1.3))
        h = 2.0 * half / nodes
        first = -(nodes // 2)  # node 0 is exactly 0.0, the ray's end point
    spec.update(first=first, h=h, exclusion=exclusion, bound=bound_h * h, pair_seed=int(rng.integers(2**31)))
    return spec


def grid_points(spec: dict) -> np.ndarray:
    """The grid: ``nodes + 1`` points ``h * k`` for integers k from ``first``."""
    return spec["h"] * (np.arange(spec["nodes"] + 1) + spec["first"])


def window_nodes(spec: dict, x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Finite nodes inside the window and clear of the domain's ends, as
    the grid residual selects them."""
    fin = np.isfinite(values)
    mask = fin & (x >= GRID_WINDOW[0]) & (x <= GRID_WINDOW[1])
    if spec["exclusion"] > 0.0:
        xf = x[fin]
        mask &= (x - xf[0] >= spec["exclusion"]) & (xf[-1] - x >= spec["exclusion"])
    return x[mask]


def grid_slopes_and_pairs(spec: dict, x: np.ndarray, values: np.ndarray):
    """Ascending slopes -x over the window nodes, and Fenchel-Young pairs
    (node, slope) joining each window node to a shuffled slope."""
    xs = window_nodes(spec, x, values)
    slopes = -xs[::-1]
    perm = np.random.default_rng(spec["pair_seed"]).permutation(slopes.size)
    pairs = np.stack([xs, slopes[perm]], axis=1)
    return slopes, pairs


def grid_round(seed: int) -> list[dict]:
    """The grid-verify round: one function spec per op, in run order."""
    rng = np.random.default_rng([seed, 2])
    specs = [make_grid_spec(rng, kind, reflected, nodes) for nodes, kinds in GRID_SIZES for kind, reflected in kinds]
    return _largest_first([specs[i] for i in rng.permutation(len(specs))], "nodes")


# ---------------------------------------------------------------------------
# cli-cold


def _json_matrix(m):
    return [[float(v) for v in row] for row in np.asarray(m)]


def _json_vector(v):
    return [float(x) for x in np.asarray(v)]


def _params_json(p: dict) -> dict:
    return {
        "E": _json_matrix(p["E"]),
        "c": _json_vector(p["c"]),
        "w": _json_vector(p["w"]),
        "tau": p["tau"],
        "beta": p["beta"],
    }


def closed_form_pd(p: dict):
    """A = sqrt(tau) E, b and gamma of the positive definite solution,
    computed with numpy alone."""
    rt = np.sqrt(p["tau"])
    e = 0.5 * (p["E"] + p["E"].T)
    b = (p["w"] + rt * p["c"]) / (1.0 + rt)
    diff = p["c"] - p["w"]
    gamma = (p["beta"] * (1.0 + rt) ** 2 + 0.5 * rt * float(diff @ np.linalg.solve(e, diff))) / (
        (1.0 + rt) ** 2 * (p["tau"] + 1.0)
    )
    return rt * e, b, gamma


def cli_set(seed: int, index: int) -> list:
    """One set of CLI ops as (kind, argv, config or None, expectations), in
    CLI_KINDS order; the runner writes each config to a file and passes it
    with ``--config``."""
    rng = np.random.default_rng([seed, 3, index])
    point_seed = int(rng.integers(0, 1000))
    ops = []

    p = make_problem(rng, UC2, 3)
    ops.append(("classify", ["classify"], {"params": _params_json(p)}, {"exit": 0, "problem": p}))

    p = make_problem(rng, UND, 3)
    cand = {"A": _json_matrix(p["candidate"]["A"]), "b": _json_vector(p["candidate"]["b"]), "gamma": 0.0}
    ops.append(
        (
            "classify-nonsymmetric",
            ["classify"],
            {"params": _params_json(p), "candidate": {"quadratic": cand}},
            {"exit": 3, "problem": p},
        )
    )

    p = make_problem(rng, QSE, 4, variant_index=1)
    ops.append(("solve", ["solve"], {"params": _params_json(p)}, {"exit": 0, "problem": p}))

    p = make_problem(rng, UQIC, 3)
    a, b, gamma = closed_form_pd(p)
    cand = {"A": _json_matrix(a), "b": _json_vector(b), "gamma": float(gamma)}
    ops.append(
        (
            "verify-quadratic",
            ["verify"],
            {"params": _params_json(p), "candidate": {"quadratic": cand}},
            {"exit": 0, "problem": p},
        )
    )

    kind, reflected = (("half_square", False), ("split_quadratic", True), ("ray_indicator", False),
                       ("split_quadratic", False), ("ray_indicator", True))[index % 5]
    g = make_grid_spec(rng, kind, reflected, 800)
    x = grid_points(g)
    v = grid_values(g, x)
    sampled = {"points": _json_vector(x), "values": ["inf" if np.isinf(t) else float(t) for t in v]}
    flip = {"E": [[-1.0]], "c": [0.0], "w": [0.0], "tau": 1.0, "beta": 0.0}
    ops.append(
        (
            "verify-sampled",
            ["verify"],
            {
                "params": flip,
                "candidate": {"sampled": sampled},
                "options": {"window": list(GRID_WINDOW), "boundary_exclusion": g["exclusion"]},
            },
            {"exit": 0, "grid": g},
        )
    )

    g = make_grid_spec(rng, "double_well", False, 1000)
    x = grid_points(g)
    v = grid_values(g, x)
    slopes = {"start": -4.0, "stop": 4.0, "count": 401}
    ops.append(
        (
            "conjugate",
            ["conjugate", "--check"],
            {"input": {"points": _json_vector(x), "values": _json_vector(v)}, "slopes": slopes},
            {"exit": 0, "grid": g},
        )
    )

    for name in CLI_DEMOS:
        ops.append((f"demo-{name}", ["demo", name], None, {"exit": 0}))
    return [(kind, argv + ["--seed", str(point_seed)], config, expect) for kind, argv, config, expect in ops]


def cli_round(seed: int) -> list[tuple[int, int]]:
    """The cli-cold round as (set index, op index) pairs, in run order.

    Every config set appears CLI_REPEATS times, each time in full, so every
    round holds every op kind in the same proportion."""
    rng = np.random.default_rng([seed, 4])
    slots = [(s, k) for _ in range(CLI_REPEATS) for s in range(CLI_SETS) for k in range(len(CLI_KINDS))]
    order = rng.permutation(len(slots))
    return [slots[i] for i in order]
