"""Acceptance suite: one test per criterion, printing a pass line each.

Values are exact integers throughout; no tolerances apply anywhere.
Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import random
import time
from functools import lru_cache
from itertools import permutations, product

from modmckay.char0 import char0_distance, lr_neighbors
from modmckay.conormal import addable_indices, bk_children, conormal_indices
from modmckay.graph import build_certified_graph
from modmckay.moves import _certify, certified_moves, validate_move
from modmckay.planner import length_bound, plan_path
from modmckay.weights import (
    f_value,
    partition_to_weight,
    steinberg_weight,
    to_scaled_root_coeffs,
    weight_to_partition,
)
from conormal_oracle import _residue_sets, block_form
from graph_oracle import all_pairs_distances, successor_heads
from planner_oracle import canonical_path_char0
from weights_oracle import cartan_matrix, p_adic_decompose

DIAMETER_TABLE = {
    (2, 2): 1,
    (2, 3): 2,
    (2, 5): 4,
    (3, 2): 3,
    (3, 3): 6,
    (3, 5): 12,
    (4, 2): 6,
    (4, 3): 12,
    (5, 2): 10,
    (5, 3): 20,
}

CHAR0_INSTANCES = [(2, 3), (2, 5), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]

PLANNER_INSTANCES = [
    (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 5), (4, 2), (4, 3), (5, 2),
]


@lru_cache(maxsize=None)
def graph_and_rows(n, p):
    g = build_certified_graph(n, p)
    return g, tuple(tuple(row) for row in all_pairs_distances(g))


def test_criterion_1_diameter_reproduction():
    for (n, p), expected in DIAMETER_TABLE.items():
        g, rows = graph_and_rows(n, p)
        diam = max(d for row in rows for d in row)
        assert all(d is not None for row in rows for d in row), (n, p)
        assert diam == expected == length_bound(n, p), (n, p, diam)
    print("ACCEPTANCE 1 diameter reproduction: PASS")


def test_criterion_2_char0_distance():
    for n, p in CHAR0_INSTANCES:
        bound = length_bound(n, p)
        start = time.monotonic()
        d = char0_distance((0,) * (n - 1), steinberg_weight(n, p), bound)
        elapsed = time.monotonic() - start
        assert d == bound, (n, p, d)
        assert elapsed < 10.0, (n, p, elapsed)
    print("ACCEPTANCE 2 characteristic-0 distances: PASS")


def test_criterion_3_extremal_pair():
    for (n, p), expected in DIAMETER_TABLE.items():
        g, rows = graph_and_rows(n, p)
        zero = g.index_of((0,) * (n - 1))
        st = g.index_of(steinberg_weight(n, p))
        diam = max(d for row in rows for d in row)
        assert rows[zero][st] == expected == diam, (n, p)
    print("ACCEPTANCE 3 extremal pair attains the diameter: PASS")


def test_criterion_4_planner_soundness():
    for n, p in PLANNER_INSTANCES:
        assert p ** (n - 1) <= 256
        g, rows = graph_and_rows(n, p)
        bound = length_bound(n, p)
        zero = (0,) * (n - 1)
        st = steinberg_weight(n, p)
        for i, a in enumerate(g.vertices):
            for j, b in enumerate(g.vertices):
                plan = plan_path(a, b, p)  # construction self-validates
                assert plan.waypoints[-1] == b
                assert plan.length <= bound
                assert plan.length >= rows[i][j]  # admissibility
                for w, move, nxt in zip(
                    plan.waypoints, plan.moves, plan.waypoints[1:]
                ):
                    assert validate_move(w, nxt, p) == move
        assert plan_path(zero, st, p).length == bound == rows[
            g.index_of(zero)
        ][g.index_of(st)]
    print("ACCEPTANCE 4 planner soundness on all ordered pairs: PASS")


def _box_add_oracle(w):
    parts = weight_to_partition(w)
    n = len(parts)
    out = set()
    for row in range(1, n + 1):
        if row > 1 and parts[row - 2] < parts[row - 1] + 1:
            continue
        bumped = tuple(x + (1 if j == row else 0) for j, x in enumerate(parts, 1))
        kind = "a" if row == 1 else ("c" if row == n else f"b({row - 1})")
        out.add((kind, partition_to_weight(bumped)))
    return out


def _exhaustive_injection(removers, adders):
    if len(removers) > len(adders):
        return False
    return any(
        all(a > r for r, a in zip(removers, image))
        for image in permutations(adders, len(removers))
    )


def test_criterion_5_oracle_equivalences():
    rng = random.Random(50001)
    for _ in range(10_000):
        n = rng.randrange(2, 9)
        w = tuple(rng.randrange(6) for _ in range(n - 1))
        assert lr_neighbors(w) == _box_add_oracle(w)

    rng = random.Random(50002)
    for _ in range(10_000):
        n = rng.randrange(2, 7)
        parts = tuple(sorted((rng.randrange(13) for _ in range(n)), reverse=True))
        p = rng.choice([2, 3, 5])
        con = conormal_indices(parts, p)
        for i in addable_indices(parts):
            removers, adders = _residue_sets(parts, i, p)
            assert (i in con) == _exhaustive_injection(removers, adders)

    rng = random.Random(50003)
    for _ in range(10_000):
        n = rng.randrange(2, 8)
        p = rng.choice([2, 3, 5, 7])
        w = tuple(rng.randrange(p**3) for _ in range(n - 1))
        digits = p_adic_decompose(w, p)
        assert all(max(d) < p for d in digits)
        assert tuple(
            sum(p**i * d[j] for i, d in enumerate(digits)) for j in range(n - 1)
        ) == w
    print("ACCEPTANCE 5 oracle equivalences (3 x 10^4 cases): PASS")


def test_criterion_6_structural_invariants():
    for n, p in DIAMETER_TABLE:
        for w in product(range(p), repeat=n - 1):
            parts = weight_to_partition(w)
            con = conormal_indices(parts, p)
            assert 1 in con, (n, p, w)
            if any(w):
                assert 1 + block_form(parts)[0][1] in con, (n, p, w)
            for move, target in certified_moves(w, p):
                assert _certify(w, move, target, p, parts, con), (n, p, w, move)
                assert f_value(target) <= f_value(w) + 1, (n, p, w, move)
            for kind, nb in lr_neighbors(w):
                delta = f_value(nb) - f_value(w)
                assert delta == (-(n - 1) if kind == "c" else 1), (n, p, w, kind)
    print("ACCEPTANCE 6 structural invariants: PASS")


def test_criterion_7_golden_canonical_path():
    # The walk that canonical-path renders, the planner's from zero to the
    # Steinberg weight, and the edge-by-edge oracle.
    plan = plan_path((0, 0, 0, 0), steinberg_weight(5, 2), 2)
    expected = (
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 1),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
        (1, 0, 1, 1),
        (0, 1, 1, 1),
        (1, 1, 1, 1),
    )
    assert plan.waypoints == canonical_path_char0(5, 2) == expected
    assert plan.length == len(expected) - 1 == 10
    print("ACCEPTANCE 7 golden canonical path (n=5, p=2): PASS")


def test_criterion_8_algebraic_identities():
    rng = random.Random(80001)
    for n in range(2, 51):
        C = cartan_matrix(n)
        for _ in range(3):
            w = tuple(rng.randrange(7) for _ in range(n - 1))
            scaled = to_scaled_root_coeffs(w)
            recovered = []
            for row in C:
                total = sum(c * s for c, s in zip(row, scaled))
                assert total % n == 0
                recovered.append(total // n)
            assert tuple(recovered) == w

    rng = random.Random(80002)
    for _ in range(1000):
        n = rng.randrange(2, 12)
        C = cartan_matrix(n)
        c = [rng.randrange(-5, 6) for _ in range(n - 1)]
        diff = [sum(row[j] * c[j] for j in range(n - 1)) for row in C]
        nu = tuple(max(0, -d) + rng.randrange(3) for d in diff)
        lam = tuple(a + d for a, d in zip(nu, diff))
        assert sum(lam) - sum(nu) == c[0] + c[-1]

    for n in range(2, 51):
        for p in range(2, 51):
            assert f_value(steinberg_weight(n, p)) == (p - 1) * n * (n - 1) // 2
    print("ACCEPTANCE 8 algebraic identities: PASS")


# The f-law supergraphs below, each with its count of conormal children
# that are not p-restricted.
SUPERGRAPH_INSTANCES = {(3, 5): 9, (5, 3): 73, (4, 5): 62, (6, 3): 254}


def test_criterion_9_scope_on_an_f_law_supergraph():
    # The scope note: on an edge set E that holds the certified edges and
    # obeys the f-law, the certified walks bound every distance, and f
    # bounds d_E(0, St) from below, so E has the same diameter.  Here E adds
    # every p-restricted conormal child (bk_children) to the certified edges.
    for (n, p), outside in SUPERGRAPH_INSTANCES.items():
        g = build_certified_graph(n, p)
        heads = [set(js) for js in successor_heads(g.vertices, p)]
        children = [
            (i, child)
            for i, w in enumerate(g.vertices)
            for _, child in bk_children(weight_to_partition(w), p)
        ]
        restricted = [(i, child) for i, child in children if max(child) < p]
        assert len(children) - len(restricted) == outside, (n, p)
        for i, child in restricted:
            heads[i].add(g.index_of(child))
        fs = [f_value(w) for w in g.vertices]
        assert all(fs[j] <= fs[i] + 1 for i, js in enumerate(heads) for j in js), (n, p)
        rows = all_pairs_distances(g, [sorted(js) for js in heads])
        assert all(None not in row for row in rows), (n, p)
        assert max(map(max, rows)) == rows[0][-1] == length_bound(n, p), (n, p)
    print("ACCEPTANCE 9 diameter on an f-law supergraph: PASS")
