import argparse
import json
import random
from collections import Counter
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planner_oracle
from graph_oracle import all_pairs_distances
from modmckay import cli, planner
from modmckay.graph import bfs_distances, build_certified_graph
from modmckay.moves import (
    CLEAR_FORWARD,
    CLEAR_LAST,
    Move,
    certified_moves,
    first_nonzero_position,
    validate_move,
)
from modmckay.planner import InvariantViolationError, length_bound, plan_path
from modmckay.weights import f_value, format_weight, steinberg_weight
from planner_oracle import canonical_path_char0


def all_restricted(n, p):
    return [w for w in product(range(p), repeat=n - 1)]


def s_mu(mu, p):
    return planner._statistics(mu, p)[1]


def capital_M(mu, p):
    """M(mu), as the planner reaches it: K(mu) with the seed 1 at s_mu."""
    m = list(planner._waypoint(planner._waypoint_key(mu, p), len(mu) + 1, p))
    s = s_mu(mu, p)
    if s:
        m[s - 1] += 1
    return tuple(m)


def path_from_M(mu, p):
    """The moves from M(mu) to mu, expanded from the planner's travel runs."""
    _, s, on_path = planner._statistics(mu, p)
    if on_path:
        return []
    return [m for x, k in planner._travels_from_M(mu, s) for m in planner._travel(x) * k]


class TestEll:
    def test_steinberg(self):
        assert planner._ell((2, 2, 2), 3) == 0

    def test_zero(self):
        assert planner._ell((0, 0, 0), 3) == 4

    def test_last_small_entry(self):
        assert planner._ell((1, 2, 0, 2), 3) == 3


class TestCanonicalSet:
    def test_golden_path_vertex_count(self):
        assert len(planner_oracle.canonical_set(5, 2)) == 11

    def test_n2_p3(self):
        assert planner_oracle.canonical_set(2, 3) == {(0,), (1,), (2,)}

    def test_endpoints_always_present(self):
        for n, p in [(2, 2), (3, 3), (4, 2), (5, 3)]:
            M = planner_oracle.canonical_set(n, p)
            assert (0,) * (n - 1) in M
            assert steinberg_weight(n, p) in M


class TestSMu:
    def test_zero_on_canonical_tail_weights(self):
        for n, p in [(3, 3), (5, 2), (4, 3)]:
            for mu in planner_oracle.canonical_set(n, p):
                l = planner._ell(mu, p)
                if all(mu[x - 1] == 0 for x in range(1, min(l, n))):
                    assert s_mu(mu, p) == 0

    def test_travelling_one(self):
        assert s_mu((1, 0, 1, 1), 2) == 1

    def test_below_gap(self):
        assert s_mu((2, 0, 1), 3) == 1


class TestCapitalM:
    def test_members_fixed(self):
        for mu in planner_oracle.canonical_set(4, 3):
            assert capital_M(mu, 3) == mu

    def test_constructed_waypoint(self):
        assert capital_M((2, 0, 1), 3) == (1, 0, 1)

    def test_stage_end_member(self):
        assert capital_M((0, 2, 2), 3) == (0, 2, 2)

    def test_always_lands_in_canonical_set(self):
        for n, p in [(3, 3), (4, 2), (4, 3), (5, 2)]:
            for mu in all_restricted(n, p):
                assert capital_M(mu, p) in planner_oracle.canonical_set(n, p)
                assert capital_M(mu, p) == planner_oracle.capital_M_of(mu, p)


class TestLambdaZero:
    def test_p2_always_zero(self):
        assert planner._lambda_zero((1, 0, 1), 3, 0, 2) == 0
        assert planner._lambda_zero((1, 1, 1), 2, 1, 2) == 0

    def test_example(self):
        assert planner._lambda_zero((2, 0, 1), 3, 0, 3) == 1

    def test_matching_residue_gives_zero(self):
        assert planner._lambda_zero((2, 0, 1), 3, 3, 5) == 0

    def test_range(self):
        rng = random.Random(401)
        for _ in range(200):
            p = rng.choice([2, 3, 5, 7])
            lam = tuple(rng.randrange(p) for _ in range(4))
            upto = rng.randrange(5)
            r = rng.randrange(-3, 7)
            l0 = planner._lambda_zero(lam, upto, r, p)
            assert 0 <= l0 <= p - 2
            assert (l0 + sum(lam[:upto])) % (p - 1) == r % (p - 1)


class TestPathFromM:
    def test_trivial_for_members(self):
        for mu in planner_oracle.canonical_set(3, 3):
            assert path_from_M(mu, 3) == []

    def test_single_add(self):
        assert path_from_M((2, 0, 1), 3) == [Move("add_first")]

    def test_travelling_target(self):
        assert path_from_M((1, 1, 0, 1), 2) == [Move("add_first")]

    def test_length_formula(self):
        for n, p in [(3, 3), (4, 2), (4, 3), (5, 2), (3, 5)]:
            for mu in all_restricted(n, p):
                if mu in planner_oracle.canonical_set(n, p):
                    continue
                s = s_mu(mu, p)
                expected = (mu[s - 1] - 1) * s + sum(
                    i * mu[i - 1] for i in range(1, s)
                )
                assert len(path_from_M(mu, p)) == expected
                assert path_from_M(mu, p) == planner_oracle.path_from_M(mu, p)


class TestPlanPath:
    def test_canonical_plan_matches_golden_path(self):
        plan = plan_path((0, 0, 0, 0), (1, 1, 1, 1), 2)
        assert plan.length == 10
        assert plan.waypoints == (
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

    def test_equal_weights_give_empty_plan(self):
        plan = plan_path((1, 2), (1, 2), 3)
        assert plan.length == 0
        assert plan.waypoints == ((1, 2),)

    def test_single_add(self):
        plan = plan_path((2,), (1,), 3)
        assert plan.moves == (Move("add_first"),)

    def test_validated_and_bounded_on_two_instances(self):
        for n, p in [(3, 2), (2, 5)]:
            g = build_certified_graph(n, p)
            rows = all_pairs_distances(g)
            bound = length_bound(n, p)
            for a in g.vertices:
                for b in g.vertices:
                    plan = plan_path(a, b, p)
                    assert plan.source == a and plan.target == b
                    assert plan.waypoints[0] == a and plan.waypoints[-1] == b
                    assert plan.length <= bound
                    assert plan.length >= rows[g.index_of(a)][g.index_of(b)]
                    # waypoints really are the move applications
                    for w, move, nxt in zip(
                        plan.waypoints, plan.moves, plan.waypoints[1:]
                    ):
                        assert validate_move(w, nxt, p) == move

    def test_equality_at_extremal_pair(self):
        for n, p in [(2, 3), (3, 2), (3, 3), (4, 2)]:
            zero = (0,) * (n - 1)
            st = steinberg_weight(n, p)
            assert plan_path(zero, st, p).length == length_bound(n, p)

    def test_case_i_normalization_cost(self):
        # the add-then-sweep prefix of the ell(lam) > ell(mu) case costs
        # lam_0 + sum S_i <= (n-1)(p-1), re-derived here by simulation
        for n, p in [(3, 3), (4, 3), (3, 5), (5, 2)]:
            for lam in all_restricted(n, p):
                if not any(lam):
                    continue
                l_lam = planner._ell(lam, p)
                if l_lam == 0:
                    continue  # Steinberg never lands in this case
                steps = planner._lambda_zero(lam, l_lam, 0, p)
                w = lam
                for _ in range(steps):
                    w = dict(certified_moves(w, p))[Move("add_first")]
                while True:
                    s = first_nonzero_position(w)
                    if s is None or s >= l_lam:
                        break
                    w = dict(certified_moves(w, p))[Move("clear_forward", s)]
                    steps += 1
                assert steps <= (n - 1) * (p - 1)
                assert w[l_lam - 1] in (0, p - 1)
                assert all(x == 0 for x in w[: l_lam - 1])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            plan_path((3, 0), (0, 0), 3)
        with pytest.raises(ValueError):
            plan_path((0, 0), (1, 1, 1), 2)


@st.composite
def weight_pairs(draw, max_n=12, ends=False):
    """(source, target, p): two p-restricted weights of one rank n <= max_n;
    with ``ends``, either may also be zero or the Steinberg weight."""
    n = draw(st.integers(2, max_n))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    weight = st.tuples(*[st.integers(0, p - 1)] * (n - 1))
    if ends:
        weight = st.one_of(
            st.just((0,) * (n - 1)), st.just(steinberg_weight(n, p)), weight
        )
    return draw(weight), draw(weight), p


@st.composite
def weights_near_the_path(draw, max_n=12):
    """(mu, p): a waypoint of the canonical path of a rank n <= max_n, with
    one entry possibly redrawn."""
    n = draw(st.integers(2, max_n))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    mu = list(draw(st.sampled_from(canonical_path_char0(n, p))))
    mu[draw(st.integers(0, n - 2))] = draw(st.integers(0, p - 1))
    return tuple(mu), p


class TestCanonicalMembership:
    """planner._statistics tells canonical weights by their shape; the
    oracle builds the path and looks them up."""

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 7, 11, 13])
    def test_every_vertex_up_to_3000(self, p):
        n = 2
        while p ** (n - 1) <= 3000:
            canonical = planner_oracle.canonical_set(n, p)
            for mu in all_restricted(n, p):
                assert planner._statistics(mu, p)[2] == (mu in canonical)
            n += 1

    def test_every_waypoint_at_40_11(self):
        for mu in canonical_path_char0(40, 11):
            assert planner._statistics(mu, 11)[2]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(weights_near_the_path(), weight_pairs().map(lambda c: c[1:])))
    def test_random_weights(self, case):
        mu, p = case
        expected = mu in planner_oracle.canonical_set(len(mu) + 1, p)
        assert planner._statistics(mu, p)[2] == expected


class TestPlanProperties:
    """plan_path beyond the exhaustive range: n up to 12, where p^(n-1)
    reaches 7^11 vertices and no BFS can check the plan."""

    @settings(max_examples=150, deadline=None)
    @given(weight_pairs())
    def test_plan_replays_within_bounds(self, case):
        lam, mu, p = case
        plan = plan_path(lam, mu, p)
        n = len(lam) + 1
        assert plan.waypoints[0] == lam and len(plan.waypoints) == plan.length + 1
        w = lam
        for move, nxt in zip(plan.moves, plan.waypoints[1:]):
            validate_move(w, nxt, p)  # a certified edge ...
            assert (move, nxt) in certified_moves(w, p)  # ... carrying this label
            w = nxt
        assert w == mu
        assert f_value(mu) - f_value(lam) <= plan.length <= length_bound(n, p)

    @settings(deadline=None)
    @given(st.integers(2, 12), st.sampled_from([2, 3, 5, 7]))
    def test_zero_to_steinberg_meets_the_bound(self, n, p):
        plan = plan_path((0,) * (n - 1), steinberg_weight(n, p), p)
        assert plan.length == length_bound(n, p)


class TestPathPlanSerialization:
    def test_json_shape(self):
        payload = plan_path((0,), (1,), 2).to_json_dict()
        assert payload["length"] == 1
        assert payload["moves"] == [{"kind": "add_first"}]
        assert payload["waypoints"] == [[0], [1]]

    @settings(max_examples=100, deadline=None)
    @given(weight_pairs(ends=True))
    def test_each_move_changes_only_its_stated_entries(self, case):
        # The renderers redraw only the entries _effect returns.
        lam, mu, p = case
        plan = plan_path(lam, mu, p)
        for move, w, nxt in zip(plan.moves, plan.waypoints, plan.waypoints[1:]):
            cur = list(w)
            stated = {i % len(w) for i in planner._effect(cur, move.kind, move.s or 1, 1, p)}
            assert tuple(cur) == nxt
            assert (move, nxt) in certified_moves(w, p)
            assert {i for i, (a, b) in enumerate(zip(w, nxt)) if a != b} <= stated


def certified_plan(source, p, runs):
    """A PathPlan from ``source`` made of the blocks ``runs``, each
    certified by the planner's closed-form check as it is applied; it
    ends wherever they lead."""
    cur = list(source)
    for kind, at, k in runs:
        planner._run(cur, kind, at, k, p)
    length = sum(k * at if kind == planner._TRAVEL else k for kind, at, k in runs)
    return planner.PathPlan(
        n=len(source) + 1, p=p, source=tuple(source), target=tuple(cur),
        blocks=tuple(runs), length=length,
    )


@st.composite
def block_walks(draw, max_n=7):
    """A PathPlan of up to six random certified blocks from a random
    weight, each a run the precondition allows at the weight it starts
    from: travel(x) up to the first nonzero position, with k up to 2p so
    that entries wrap, or the clearing run at that position, with k up to
    the entry."""
    n = draw(st.integers(2, max_n))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    source = draw(st.tuples(*[st.integers(0, p - 1)] * (n - 1)))
    cur, runs = list(source), []
    for _ in range(draw(st.integers(0, 6))):
        s = first_nonzero_position(cur)
        kinds = [planner._TRAVEL] if s is None else [
            planner._TRAVEL, CLEAR_LAST if s == n - 1 else CLEAR_FORWARD
        ]
        kind = draw(st.sampled_from(kinds))
        if kind == planner._TRAVEL:
            at, k = draw(st.integers(1, s or n - 1)), draw(st.integers(1, 2 * p))
        else:
            at, k = s, draw(st.integers(1, cur[s - 1]))
        planner._run(cur, kind, at, k, p)
        runs.append((kind, at, k))
    return certified_plan(source, p, runs)


# The JSON nesting of a payload's members, of its waypoint rows, and of
# their entries: each a newline and the indent of its depth.
INDENT = "\n  "
ITEM = INDENT + "  "
JSON_PREFIX = ITEM + "  "


def dot(name, rows, labels):
    """A DOT path through ``rows``: one node per distinct row, in order of
    first visit, and one labelled edge per step."""
    nodes = [f'  "{row}";' for row in dict.fromkeys(rows)]
    edges = [f'  "{a}" -> "{b}" [label="{k}"];' for a, b, k in zip(rows, rows[1:], labels)]
    return "\n".join([f"digraph {name} {{", *nodes, *edges, "}"]) + "\n"


class TestRowsMatchTheOracle:
    """Every walk view, the plan and canonical-path commands' text, JSON
    and DOT, renders the text that PathPlan._render yields per block.
    The oracle (planner_oracle.rows) steps the rows move by move, and each
    view must equal them joined with its separators."""

    @staticmethod
    def assert_rows(plan):
        rows = list(planner_oracle.rows(plan))
        cells = list(planner_oracle.rows(plan, JSON_PREFIX))
        assert rows == list(map(format_weight, plan.waypoints))
        assert cells == [",".join(JSON_PREFIX + str(v) for v in w) for w in plan.waypoints]
        moves = [move for move, _, _ in plan._walk()]
        sep = ITEM + "]," + ITEM + "["
        waypoints = "[" + ITEM + "[" + sep.join(cells) + ITEM + "]" + INDENT + "]"
        n, p = plan.n, plan.p

        def expected_json(payload):
            text = json.dumps({**payload, "waypoints": None}, indent=2)
            return text[: text.rindex("null")] + waypoints + "\n}\n"

        # The commands render the plan they are given as their planner's.
        with mock.patch.object(cli, "plan_path", lambda *args: plan):
            args = argparse.Namespace(src=plan.source, tgt=plan.target, p=p, n=n)
            payload, views, _ = cli._cmd_plan(args)
            assert "".join(cli._json(payload)) == expected_json({
                "n": n, "p": p, "source": list(plan.source), "target": list(plan.target),
                "length": plan.length, "moves": [move.to_json_dict() for move in moves],
            })
            steps = "".join(f"\n{move} -> {row}" for move, row in zip(moves, rows[1:]))
            assert "".join(views["text"]()) == (
                f"source {rows[0]}\ntarget {format_weight(plan.target)}\n"
                f"length {plan.length}{steps}\n"
            )
            assert "".join(views["dot"]()) == dot(f"plan_n{n}_p{p}", rows, map(str, moves))

            payload, views, _ = cli._cmd_canonical_path(args)
            want = expected_json({"n": n, "p": p, "length": plan.length})
            assert "".join(cli._json(payload)) == want
            assert "".join(views["text"]()) == "".join(row + "\n" for row in rows)
            labels = ("a" if move.s is None else f"b({move.s})" for move in moves)
            assert "".join(views["dot"]()) == dot(f"canonical_n{n}_p{p}", rows, labels)

    @pytest.mark.parametrize("source, p, runs", [
        # p = 2: rep is 1, so add_first at a 1 is a self-loop.
        ((1, 0), 2, [(planner._TRAVEL, 1, 3), (CLEAR_FORWARD, 1, 1), (planner._TRAVEL, 1, 2)]),
        ((0, 0, 1), 2, [(planner._TRAVEL, 3, 2), (CLEAR_LAST, 3, 1), (planner._TRAVEL, 2, 3)]),
        # n = 2: travel(1) and clear_last runs of k > 1, wrapping past p-1.
        ((1,), 5, [(planner._TRAVEL, 1, 6), (CLEAR_LAST, 1, 3), (planner._TRAVEL, 1, 2)]),
        # The empty plan.
        ((2, 1), 3, []),
        # clear_forward(n-2): nothing after the entry it raises.
        ((0, 3, 1), 5, [(CLEAR_FORWARD, 2, 3), (CLEAR_LAST, 3, 4)]),
        # travel(1) runs of k > p-1 in front of a tail, one joined block each.
        ((0, 2, 1), 5, [(planner._TRAVEL, 1, 9), (planner._TRAVEL, 1, 13), (CLEAR_FORWARD, 1, 2)]),
        # Runs of one move, of every kind.
        ((0, 0, 3), 5, [(planner._TRAVEL, 3, 1), (planner._TRAVEL, 1, 1), (CLEAR_FORWARD, 1, 1),
                        (CLEAR_FORWARD, 2, 1), (CLEAR_LAST, 3, 1)]),
        # p = 2 with every kind: travel(x) for x = 1, 2, 3, and clearing runs.
        ((0, 0, 0), 2, [(planner._TRAVEL, 3, 2), (planner._TRAVEL, 1, 3), (CLEAR_FORWARD, 1, 1),
                        (planner._TRAVEL, 2, 1), (CLEAR_FORWARD, 2, 1), (CLEAR_LAST, 3, 1)]),
    ])
    def test_edge_cases(self, source, p, runs):
        self.assert_rows(certified_plan(source, p, runs))

    @settings(max_examples=200, deadline=None)
    @given(block_walks())
    def test_random_block_walks(self, plan):
        self.assert_rows(plan)

    @settings(max_examples=100, deadline=None)
    @given(weight_pairs(ends=True))
    def test_random_plans(self, case):
        self.assert_rows(plan_path(*case))

    def test_longest_plan(self):
        self.assert_rows(plan_path((0,) * 39, steinberg_weight(40, 11), 11))


class TestInvariantGuards:
    def test_invariant_error_is_distinguishable(self):
        assert issubclass(InvariantViolationError, AssertionError)

    def test_step_check_accepts_parallel_edge_label(self):
        # (2,) -> (1,) at p=3 is both add_first and clear_last.
        b = planner_oracle._Builder((2,), 3)
        b.emit(Move("clear_last"))
        plan = planner_oracle._finish(b, 2, 3, (2,), (1,))
        assert plan.moves == (Move("clear_last"),)
        assert plan.waypoints == ((2,), (1,))

    @pytest.mark.parametrize("lost", ["first", "last"])
    def test_corrupted_travel_never_returns_a_plan(self, monkeypatch, lost):
        real = planner._effect

        def corrupted(cur, kind, at, k, p):
            if kind == planner._TRAVEL and at > 1:
                # losing the first carry leaves the 1 at position 1, losing
                # the last leaves it one short of ``at``
                at = 1 if lost == "first" else at - 1
            return real(cur, kind, at, k, p)

        monkeypatch.setattr(planner, "_effect", corrupted)
        # Steinberg -> (0,0,2,1) carries to position 3 both in plan_path's
        # own seeding step and in the walk from M(mu) to mu.
        with pytest.raises(InvariantViolationError):
            plan_path((2, 2, 2, 2), (0, 0, 2, 1), 3)


class TestBlockPreconditions:
    """Each closed-form block check refuses what stepping the block's
    moves one by one would refuse."""

    def test_travel_needs_zeros_before_its_position(self):
        with pytest.raises(InvariantViolationError, match="zeros before"):
            planner._run([1, 0, 0], planner._TRAVEL, 2, 1, 3)

    def test_travel_stays_inside_the_weight(self):
        with pytest.raises(InvariantViolationError):
            planner._run([0, 0, 0], planner._TRAVEL, 4, 1, 3)

    def test_clear_forward_needs_zeros_before_its_position(self):
        with pytest.raises(InvariantViolationError, match="zeros before"):
            planner._run([1, 2, 0], CLEAR_FORWARD, 2, 1, 3)

    def test_clear_forward_cannot_clear_more_than_the_entry(self):
        with pytest.raises(InvariantViolationError):
            planner._run([2, 0, 0], CLEAR_FORWARD, 1, 3, 5)

    def test_clear_forward_is_not_defined_at_the_last_position(self):
        with pytest.raises(InvariantViolationError):
            planner._run([0, 0, 1], CLEAR_FORWARD, 3, 1, 3)

    def test_clear_last_needs_zeros_before_the_last_position(self):
        with pytest.raises(InvariantViolationError, match="zeros before"):
            planner._run([1, 0, 1], CLEAR_LAST, 3, 1, 3)

    def test_clear_last_clears_only_the_last_position(self):
        with pytest.raises(InvariantViolationError):
            planner._run([2, 0, 0], CLEAR_LAST, 1, 1, 3)

    def test_clear_last_cannot_clear_more_than_the_entry(self):
        with pytest.raises(InvariantViolationError):
            planner._run([0, 0, 1], CLEAR_LAST, 3, 2, 3)

    def test_certified_runs_apply_their_closed_form(self):
        cur = [0, 2, 1]
        planner._run(cur, CLEAR_FORWARD, 2, 2, 5)
        assert cur == [0, 0, 3]
        planner._run(cur, planner._TRAVEL, 3, 2, 5)
        assert cur == [0, 0, 1]  # 3 + 2 wraps to the representative 1
        planner._run(cur, CLEAR_LAST, 3, 1, 5)
        assert cur == [0, 0, 0]

    def test_plan_must_end_at_the_target(self):
        b = planner._Builder((0, 0), 3)
        b.run(planner._TRAVEL, 1)
        with pytest.raises(InvariantViolationError, match="plan ends at"):
            planner._finish(b, 3, 3, (0, 0), (0, 1))

    def test_plan_must_keep_within_the_bound(self):
        b = planner._Builder((0,), 3)
        b.run(planner._TRAVEL, 1, 3)  # 0 -> 1 -> 2 -> 1, bound 2
        with pytest.raises(InvariantViolationError, match="exceeds bound"):
            planner._finish(b, 2, 3, (0,), (1,))


def assert_same_as_oracle(lam, mu, p):
    plan = plan_path(lam, mu, p)
    expected = planner_oracle.plan_path(lam, mu, p)
    assert plan.length == expected.length
    assert plan.moves == expected.moves
    assert plan.waypoints == expected.waypoints
    return plan


class TestBlocksExpandToTheOracle:
    """The block plan expands, move for move and waypoint for waypoint, to
    the plan of the step-by-step builder in tests/planner_oracle.py."""

    @pytest.mark.parametrize("n, p", [(3, 5), (5, 3), (4, 5)])
    def test_every_ordered_pair(self, n, p):
        weights = all_restricted(n, p)
        for lam in weights:
            for mu in weights:
                assert_same_as_oracle(lam, mu, p)

    @settings(max_examples=250, deadline=None)
    @given(weight_pairs(ends=True))
    def test_random_pairs(self, case):
        lam, mu, p = case
        plan = assert_same_as_oracle(lam, mu, p)
        assert plan.to_json_dict() == planner_oracle.plan_path(lam, mu, p).to_json_dict()

    def test_longest_plan(self):
        plan = assert_same_as_oracle((0,) * 39, steinberg_weight(40, 11), 11)
        assert plan.length == 7800 == length_bound(40, 11)


class TestRoutesAtScale:
    """The zero target takes the route of targets that end in 0, and a 0
    at ell(mu) < n-1 the route that deposits mu's entry and recycles a
    p-1: plans on both routes at (40,11), from the Steinberg weight, move
    for move against the oracle."""

    steinberg = steinberg_weight(40, 11)

    def test_to_zero(self):
        plan = assert_same_as_oracle(self.steinberg, (0,) * 39, 11)
        assert plan.blocks[-1] == (CLEAR_LAST, 39, 1)

    def test_to_a_target_ending_in_zero(self):
        mu = tuple(7 * i % 11 for i in range(1, 39)) + (0,)
        plan = assert_same_as_oracle(self.steinberg, mu, 11)
        assert (CLEAR_LAST, 39, 1) in plan.blocks

    def test_recycle_at_an_inner_zero(self):
        # ell(mu) = 6 < n-1, and the sweep leaves p-1 = 10 there.
        mu = (3, 1, 4, 1, 5, 0) + (10,) * 33
        plan = assert_same_as_oracle(self.steinberg, mu, 11)
        assert (CLEAR_FORWARD, 6, 10) in plan.blocks


def halves(lam, mu, p):
    """K(key(mu)), the builder of the prefix from lam and that of the
    suffix from K(mu), each walked on its own."""
    key = planner._waypoint_key(mu, p)
    waypoint = planner._waypoint(key, len(mu) + 1, p)
    head = planner._Builder(lam, p)
    planner._to_waypoint(head, lam, key)
    tail = planner._Builder(waypoint, p)
    planner._from_waypoint(tail, mu)
    return waypoint, head, tail


def assert_factors(lam, mu, p):
    waypoint, head, tail = halves(lam, mu, p)
    assert tuple(head.cur) == waypoint  # whatever lam is
    assert tuple(tail.cur) == mu
    plan = plan_path(lam, mu, p)
    assert plan.blocks == tuple(head.blocks + tail.blocks)
    assert plan.length == head.length + tail.length


class TestFactorization:
    """Every plan from lam to mu != lam is the prefix lam -> K(key(mu)),
    which reads mu only through its key, then the suffix K(mu) -> mu,
    which reads nothing of lam; verify certifies plans this way."""

    @pytest.mark.parametrize(
        "n, p", [(3, 5), (5, 3), (4, 5), (3, 7), (6, 3), (2, 7), (3, 2), (4, 2)]
    )
    def test_every_ordered_pair(self, n, p):
        weights = all_restricted(n, p)
        for lam in weights:
            for mu in weights:
                if lam != mu:
                    assert_factors(lam, mu, p)

    @settings(max_examples=300, deadline=None)
    @given(weight_pairs(ends=True))
    def test_random_pairs(self, case):
        lam, mu, p = case
        if lam != mu:
            assert_factors(lam, mu, p)

    @settings(max_examples=300, deadline=None)
    @given(weight_pairs(ends=True).map(lambda c: c[1:]))
    def test_waypoint_is_M_without_its_seed(self, case):
        mu, p = case
        expected = list(planner_oracle.capital_M_of(mu, p))
        s = planner_oracle.s_mu(mu, p)
        if s:
            expected[s - 1] -= 1
        key = planner._waypoint_key(mu, p)
        assert planner._waypoint(key, len(mu) + 1, p) == tuple(expected)


@pytest.mark.parametrize("n, p", [(3, 5), (5, 3), (4, 5), (2, 7), (3, 2), (4, 2)])
def test_verification_matches_a_per_pair_loop(n, p):
    """verify's planner lines and gap figures, from prefixes and suffixes,
    against a plan_path per ordered pair."""
    summary, checks, _ = cli.run_verification(n, p, 10**6)
    g = build_certified_graph(n, p)
    bound = length_bound(n, p)
    ok, gaps = True, []
    for lam in g.vertices:
        row = bfs_distances(g, lam)
        for mu, d in zip(g.vertices, row):
            length = plan_path(lam, mu, p).length
            ok = ok and d <= length <= bound
            gaps.append(length - d)
    zero, st = g.vertices[0], g.vertices[-1]
    assert dict(checks)["planner valid, admissible, within bound"] is ok is True
    assert dict(checks)["plan(0,St) meets the bound exactly"] is (
        plan_path(zero, st, p).length == bound
    )
    assert (summary["pairs"], summary["optimal_pairs"], summary["worst_gap"]) == (
        len(gaps), gaps.count(0), max(gaps)
    )
    assert summary["mean_gap"] == round(sum(gaps) / len(gaps), 4)


# The certificate's walks at three instances: _swept calls, then finish walks.
_CERTIFICATE_WORK = {(4, 5): (713, 76), (6, 3): (885, 102), (2, 31): (901, 91)}


@pytest.mark.parametrize("n, p", list(_CERTIFICATE_WORK))
def test_certificate_work(monkeypatch, n, p):
    """_check_plans sweeps each source once per distinct route of the keys
    it heads for, which leave out its own key when it is that key's only
    member; and walks one finish per distinct (ell(lam), swept weight, key)
    over the keys of every route a source sweeps."""
    sweeps, finishes = [], []
    real_swept, real_after = planner._swept, planner._after_sweep

    def counting_swept(lam, p, route, walks):
        sweeps.append((lam, route))
        return real_swept(lam, p, route, walks)

    def counting_after(b, l_lam, key):
        finishes.append((l_lam, tuple(b.cur), key))
        real_after(b, l_lam, key)

    g = build_certified_graph(n, p)
    monkeypatch.setattr(planner, "_swept", counting_swept)
    monkeypatch.setattr(planner, "_after_sweep", counting_after)
    longest, ok, exact, _ = planner._check_plans(
        g, {0: range(len(g.vertices))}, iter([bfs_distances(g, g.vertices[0])])
    )
    assert (longest, ok, exact) == (length_bound(n, p), True, True)

    # The same walks, counted from the routes and a sweep per (source, key).
    keys = [planner._waypoint_key(mu, p) for mu in g.vertices]
    members = Counter(keys)
    routes, walks = set(), set()
    for lam, own in zip(g.vertices, keys):
        l_lam = planner._ell(lam, p)
        route = {key: planner._route(l_lam, key, len(lam) + 1) for key in members}
        needed = {r for key, r in route.items() if key != own or members[own] > 1}
        routes |= {(lam, r) for r in needed}
        for key in members:
            if route[key] in needed:
                upto, r, stop = route[key]
                b = planner._Builder(lam, p)
                planner._sweep(b, planner._lambda_zero(lam, upto, r, p), stop)
                walks.add((l_lam, tuple(b.cur), key))
    # As many calls as distinct walks, and the same ones: none repeats.
    assert len(sweeps) == len(routes) and set(sweeps) == routes
    assert len(finishes) == len(walks) and set(finishes) == walks
    assert (len(sweeps), len(finishes)) == _CERTIFICATE_WORK[n, p]
