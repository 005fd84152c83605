import contextlib
import gc
import hashlib
import io
import json
import math
import sys
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_oracle
import verify_oracle
from modmckay import cli, planner
from modmckay import graph as graph_mod
from modmckay.char0 import lr_neighbors
from modmckay.cli import main
from modmckay.moves import Move, NoSuchEdgeError, certified_moves, validate_move
from modmckay.planner import InvariantViolationError, plan_path
from modmckay.weights import steinberg_weight
from planner_oracle import canonical_path_char0


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_diameter(self, capsys):
        code, out, _ = run(capsys, "diameter", "--n", "3", "--p", "3")
        assert code == 0 and out == "6\n"

    def test_f(self, capsys):
        code, out, _ = run(capsys, "f", "--n", "5", "--weight", "1,0,0,0")
        assert code == 0 and out == "1\n"

    def test_coeffs(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--weight", "1,0,0,0")
        assert code == 0 and out == "4,3,2,1\n"

    def test_lr_neighbors_text(self, capsys):
        code, out, _ = run(capsys, "lr-neighbors", "--weight", "1,1")
        assert code == 0
        assert out.splitlines() == ["a -> 2,1", "b(1) -> 0,2", "c -> 1,0"]

    def test_canonical_path(self, capsys):
        code, out, _ = run(capsys, "canonical-path", "--n", "2", "--p", "3")
        assert code == 0 and out.splitlines() == ["0", "1", "2"]

    def test_char0_dist(self, capsys):
        code, out, _ = run(
            capsys, "char0-dist", "--from", "0,0", "--to", "2,2", "--budget", "10"
        )
        assert code == 0 and out == "6\n"

    def test_char0_dist_exceeds(self, capsys):
        code, out, _ = run(
            capsys, "char0-dist", "--from", "0,0", "--to", "2,2", "--budget", "3"
        )
        assert code == 0 and out == "exceeds budget\n"

    def test_conormal(self, capsys):
        code, out, _ = run(capsys, "conormal", "--p", "2", "--weight", "1,1")
        assert code == 0
        assert "conormal: 1,2,3" in out

    def test_moves(self, capsys):
        code, out, _ = run(capsys, "moves", "--p", "3", "--weight", "1,0")
        assert code == 0
        assert out.splitlines() == ["add_first -> 2,0", "clear_forward(1) -> 0,1"]


def _canonical_renderings(n, p):
    """canonical-path's text, JSON and DOT, built here from the oracle's
    waypoints.  Each DOT label is the smallest kind of characteristic-0
    edge that leads to the next waypoint."""
    path = canonical_path_char0(n, p)
    rows = [",".join(map(str, w)) for w in path]
    payload = {"n": n, "p": p, "length": len(path) - 1, "waypoints": path}
    labels = [min(k for k, t in lr_neighbors(a) if t == b) for a, b in zip(path, path[1:])]
    nodes = [f'  "{row}";' for row in dict.fromkeys(rows)]
    edges = [f'  "{a}" -> "{b}" [label="{k}"];' for a, b, k in zip(rows, rows[1:], labels)]
    return {
        "text": "".join(row + "\n" for row in rows),
        "json": json.dumps(payload, indent=2) + "\n",
        "dot": "\n".join([f"digraph canonical_n{n}_p{p} {{", *nodes, *edges, "}"]) + "\n",
    }


class TestCanonicalPathCommand:
    """canonical-path renders the planner's zero-to-Steinberg plan."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_the_oracle_path(self, capsys, n, p):
        for fmt, want in _canonical_renderings(n, p).items():
            code, out, err = run(capsys, "canonical-path", "--n", str(n), "--p", str(p),
                                 "--format", fmt)
            assert (code, out, err) == (0, want, "")

    def test_no_path_stays_in_memory(self, tmp_path, capsys):
        # Nothing is cached per (n, p): a 100,002-move path held as weight
        # tuples would keep about 9 MB.
        gc.collect()
        tracemalloc.start()
        try:
            for fmt in ("text", "json", "dot"):
                code = main(["canonical-path", "--n", "2", "--p", "100003", "--format", fmt,
                             "--output", str(tmp_path / f"canonical.{fmt}")])
                assert code == 0
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr() == ("", "")
        assert kept < 1 << 20

    @pytest.mark.parametrize("fmt, limit", [("text", 8.25), ("json", 10.35), ("dot", 14.6)])
    def test_peak_memory(self, tmp_path, capsys, fmt, limit):
        # A 100,002-move walk at n = 2 is one travel(1) block, rendered as
        # one join of its cells' digits.  The peak measured 6.6 MiB in text
        # and 8.3 MiB in JSON; the limits leave 25% over that.  DOT keeps
        # one string per row for its node list and edges: 11.7 MiB, where
        # the rows split from the walk's whole text took 38.0 MiB.
        gc.collect()
        tracemalloc.start()
        try:
            code = main(["canonical-path", "--n", "2", "--p", "100003", "--format", fmt,
                         "--output", str(tmp_path / f"canonical.{fmt}")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr() == ("", "")
        assert code == 0 and peak < limit * 2**20


class TestPlanCommand:
    def test_plan_json_matches_golden_path(self, capsys):
        code, out, _ = run(
            capsys,
            "plan",
            "--n", "5",
            "--p", "2",
            "--from", "0,0,0,0",
            "--to", "1,1,1,1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["length"] == 10
        assert payload["waypoints"][0] == [0, 0, 0, 0]
        assert payload["waypoints"][-1] == [1, 1, 1, 1]
        assert payload["waypoints"][4] == [0, 0, 0, 1]

    def test_plan_text(self, capsys):
        code, out, _ = run(capsys, "plan", "--p", "3", "--from", "2", "--to", "1")
        assert code == 0
        assert "length 1" in out and "add_first -> 1" in out

    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    def test_rows_cost_no_memory_per_value_of_p(self, capsys, fmt):
        # At a large prime the rows hold cells of the values met, and the
        # travel leads cells of 0 and 1, not of every value below p (about
        # 60 MB here): one move, then seven blocks of all three kinds, two
        # of them travel(2), in nine moves.
        for src, tgt in (("1", "2"), ("1000002,1000002,1000002", "1,2,0")):
            tracemalloc.start()
            try:
                code, out, _ = run(capsys, "plan", "--p", "1000003", "--from", src,
                                   "--to", tgt, "--format", fmt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0 and peak < 1 << 20


class TestValidateCommand:
    def test_edge(self, capsys):
        code, out, _ = run(capsys, "validate", "--p", "3", "--from", "2,0", "--to", "1,0")
        assert code == 0 and out == "add_first\n"

    def test_no_edge_exits_1(self, capsys):
        code, out, _ = run(capsys, "validate", "--p", "3", "--from", "1,0", "--to", "1,1")
        assert code == 1 and out.startswith("no-such-edge")


class TestGraphAndBfs:
    def test_graph_summary(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "2", "--p", "3")
        assert code == 0 and out == "vertices 3\nedges 5\n"

    def test_graph_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "2", "--p", "2", "--format", "dot")
        assert code == 0 and '"1" -> "1" [label="add_first"];' in out

    def test_bfs_text(self, capsys):
        code, out, _ = run(capsys, "bfs", "--n", "2", "--p", "3", "--from", "0")
        assert code == 0 and out.splitlines() == ["0 0", "1 1", "2 2"]

    def test_bfs_csv(self, capsys):
        code, out, _ = run(capsys, "bfs", "--n", "2", "--p", "3", "--format", "csv")
        assert code == 0 and out.splitlines()[0] == "source,0,1,2"

    def test_bfs_json_matches_json_dumps(self, capsys):
        # 2,187 rows of {"weight": [...], "distance": d}, one f-string each.
        code, out, _ = run(capsys, "bfs", "--n", "8", "--p", "3", "--from", "0,0,0,0,0,0,0",
                           "--format", "json")
        assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
        assert len(json.loads(out)["distances"]) == 2187

    def test_bfs_without_source_needs_csv(self, capsys):
        code, _, err = run(capsys, "bfs", "--n", "2", "--p", "3")
        assert code == 2 and "needs --from" in err


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--p", "2")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_verify_names_the_instance_and_the_pairs(self, capsys):
        _, out, _ = run(capsys, "verify", "--n", "3", "--p", "2")
        assert out.splitlines()[0] == (
            "verify n=3 p=2: 4 vertices, planner checked on all 16 ordered pairs"
        )
        # 1,369 vertices, above the exhaustive limit of 1,024.
        _, out, _ = run(capsys, "verify", "--n", "3", "--p", "37")
        assert out.splitlines()[0] == (
            "verify n=3 p=37: 1369 vertices, planner checked on 300 sampled pairs "
            "(seed 20260811) plus (0,St)"
        )
        # The JSON carries the same scope.
        scopes = []
        for n, p in (("3", "2"), ("3", "37"), ("2", "251"), ("2", "509")):
            _, out, _ = run(capsys, "verify", "--n", n, "--p", p, "--format", "json")
            payload = json.loads(out)
            scopes.append(tuple(
                payload[key] for key in ("vertices", "pair_mode", "pairs", "seed", "ok")
            ))
        assert scopes == [
            (4, "exhaustive", 16, None, True),
            (1369, "sampled", 301, 20260811, True),
            (251, "exhaustive", 63001, None, True),
            (509, "exhaustive", 259081, None, True),
        ]

    @pytest.mark.parametrize("limit, mode", [(9, "exhaustive"), (8, "sampled")])
    def test_exhaustive_up_to_the_vertex_limit(self, capsys, monkeypatch, limit, mode):
        monkeypatch.setattr(cli, "_EXHAUSTIVE_VERTICES", limit)
        _, out, _ = run(capsys, "verify", "--n", "3", "--p", "3", "--format", "json")
        assert json.loads(out)["pair_mode"] == mode

    def test_every_pair_at_729_vertices(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "7", "--p", "3", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True
        assert (payload["pair_mode"], payload["pairs"]) == ("exhaustive", 729 * 729)

    @pytest.mark.parametrize(
        "n, p, optimal, worst, mean",
        [(5, 3, 3589, 18, 2.11), (4, 5, 8302, 20, 3.06), (6, 3, 31869, 28, 2.95)],
    )
    def test_gap_figures(self, capsys, n, p, optimal, worst, mean):
        # The planner's distance from shortest over every ordered pair, as
        # measured against BFS before verify reported it.
        pairs = p ** (2 * (n - 1))
        _, out, _ = run(capsys, "verify", "--n", str(n), "--p", str(p), "--format", "json")
        payload = json.loads(out)
        got = tuple(payload[key] for key in ("pairs", "optimal_pairs", "worst_gap"))
        assert got == (pairs, optimal, worst)
        assert round(payload["mean_gap"], 2) == mean
        _, out, _ = run(capsys, "verify", "--n", str(n), "--p", str(p))
        assert out.splitlines()[1] == (
            f"plan length minus BFS distance: {optimal} of {pairs} pairs optimal, "
            f"worst {worst}, mean {mean:.2f}"
        )

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--p", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert all(check["ok"] for check in payload["checks"])

    def test_planner_invariant_violation_fails_check(self, capsys, monkeypatch):
        def broken(b, *args):
            raise InvariantViolationError("plan ends at (1,), wanted (0,)")

        # The walk to the waypoint: the route's sweep, then the finish.
        monkeypatch.setattr(planner, "_sweep", broken)
        monkeypatch.setattr(planner, "_after_sweep", broken)
        code, out, err = run(capsys, "verify", "--n", "2", "--p", "3")
        assert code == 1 and err == ""
        assert "FAIL  planner valid, admissible, within bound" in out
        assert "FAIL  plan(0,St) meets the bound exactly" in out
        assert out.endswith("some checks FAILED\n")

    @pytest.mark.parametrize("piece", ["_sweep", "_after_sweep"])
    def test_a_wrong_sweep_or_finish_fails_the_planner_line(self, capsys, monkeypatch, piece):
        overshooting_verify(capsys, monkeypatch, piece, "4", "3")

    @pytest.mark.parametrize("piece", ["_sweep", "_after_sweep"])
    def test_a_wrong_sweep_or_finish_fails_the_sampled_planner_line(
        self, capsys, monkeypatch, piece
    ):
        overshooting_verify(capsys, monkeypatch, piece, "3", "37")

    def test_an_overlong_unsampled_suffix_fails_planner_and_diameter(self, capsys, monkeypatch):
        # At 1,369 vertices 300 pairs are sampled, but every target's suffix
        # is walked.  One target outside the sample, with a nonzero first
        # entry, gets (p-1)(n^2-n)/2 more add_first moves: still a certified
        # walk that ends at it, but every plan to it overruns the bound.
        seen = []
        real_check = cli._check_plans

        def spy(g, pairs, rows):
            seen.append((g, pairs))
            return real_check(g, pairs, rows)

        monkeypatch.setattr(cli, "_check_plans", spy)
        assert run(capsys, "verify", "--n", "3", "--p", "37")[0] == 0
        [(g, pairs)] = seen
        sampled = {j for js in pairs.values() for j in js}
        target = next(w for j, w in enumerate(g.vertices) if j not in sampled and w[0])
        real = planner._from_waypoint

        def overlong(b, mu):
            real(b, mu)
            if mu == target:
                b.run(planner._TRAVEL, 1, planner.length_bound(3, 37))

        monkeypatch.setattr(planner, "_from_waypoint", overlong)
        code, out, err = run(capsys, "verify", "--n", "3", "--p", "37")
        assert code == 1 and err == ""
        failed = [line[6:].rstrip() for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == [
            "diameter equals (p-1)(n^2-n)/2",
            "planner valid, admissible, within bound",
        ]
        assert "PASS  strongly connected" in out

    @pytest.mark.parametrize("n, p", [(4, 3), (2, 251)])
    def test_no_bfs_and_as_many_sweep_walks_as_vertices(self, capsys, monkeypatch, n, p):
        # Every pair is planned: the distances, d(0,St) among them, come
        # from the matrix, and no BFS runs.  The certificate walks each
        # distinct sweep once for every source, from the entries below its
        # stop and then zeros; on these instances that makes one walk per
        # vertex.  The plan from zero to Steinberg is planned whole, outside
        # these walks.
        sources, sweeps = [], []
        real_bfs, real_walk = cli.bfs_distances, planner._walk_length

        def counting_bfs(g, source):
            sources.append(source)
            return real_bfs(g, source)

        def counting_walk(start, p, walk, *args):
            if walk is planner._sweep:
                sweeps.append((start, *args))
            return real_walk(start, p, walk, *args)

        monkeypatch.setattr(cli, "bfs_distances", counting_bfs)
        monkeypatch.setattr(planner, "_walk_length", counting_walk)
        code, out, _ = run(capsys, "verify", "--n", str(n), "--p", str(p), "--format", "json")
        assert code == 0 and json.loads(out)["pair_mode"] == "exhaustive"
        assert sources == []
        assert len(sweeps) == len(set(sweeps)) == p ** (n - 1)
        assert all(not any(start[stop - 1 :]) for start, _, stop in sweeps)

    @pytest.mark.parametrize("half", ["prefix", "suffix"])
    def test_a_wrong_walk_fails_the_planner_line(self, capsys, monkeypatch, half):
        if half == "suffix":
            # Drop the last travel run that fills in a target's lower entries.
            real = planner._travels_from_M
            monkeypatch.setattr(planner, "_travels_from_M", lambda mu, s: real(mu, s)[:-1])
        else:
            # Aim the first sweep at the wrong residue.
            real = planner._lambda_zero
            monkeypatch.setattr(
                planner, "_lambda_zero", lambda lam, upto, r, p: real(lam, upto, r + 1, p)
            )
        code, out, err = run(capsys, "verify", "--n", "4", "--p", "3")
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert lines[1] == "plan length minus BFS distance: not measured, the planner check failed"
        assert "FAIL  planner valid, admissible, within bound" in out
        # The Steinberg weight is on the canonical path: its suffix has no
        # travel run to drop, so only the broken prefix fails plan(0,St).
        exact = "PASS" if half == "suffix" else "FAIL"
        assert f"{exact}  plan(0,St) meets the bound exactly" in out
        assert lines[-1] == "some checks FAILED"

    @pytest.mark.parametrize("factor", [0, 10])
    def test_a_miscounted_length_fails_the_planner_line(self, capsys, monkeypatch, factor):
        miscounted_verify(capsys, monkeypatch, factor, "3", "3")

    @pytest.mark.parametrize("factor", [0, 10])
    def test_a_miscounted_length_fails_the_sampled_planner_line(
        self, capsys, monkeypatch, factor
    ):
        # 1,369 vertices: the sampled pairs undercut their BFS distances,
        # and the certificate over every pair overruns the bound.
        miscounted_verify(capsys, monkeypatch, factor, "3", "37")

    def test_planner_bug_propagates(self, capsys, monkeypatch):
        def broken(b, mu):
            raise RuntimeError("planner bug")

        monkeypatch.setattr(planner, "_from_waypoint", broken)
        with pytest.raises(RuntimeError, match="planner bug"):
            main(["verify", "--n", "2", "--p", "3"])

    def test_a_memory_limit_is_never_a_fail(self, capsys):
        # Within the vertex limit every distance matrix fits the traversal's
        # memory limit.  Above it the gap figures come from a sample, and the
        # walks still prove connectivity and the diameter.
        size = cli._EXHAUSTIVE_VERTICES
        need = graph_mod._mask_bytes(size, (size - 1).bit_length())
        assert need <= graph_mod.DIAMETER_MEMORY_LIMIT
        code, out, _ = run(capsys, "verify", "--n", "3", "--p", "37", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["ok"] is True and payload["pair_mode"] == "sampled"
        assert all(check["ok"] for check in payload["checks"])

    def test_bfs_rows_only_from_planned_sources(self, capsys, monkeypatch):
        sources = []

        def counting(g, source):
            sources.append(source)
            return graph_mod.bfs_distances(g, source)

        monkeypatch.setattr(cli, "bfs_distances", counting)
        # 1,369 vertices: verify samples 300 pairs plus (zero, Steinberg).
        code, _, _ = run(capsys, "verify", "--n", "3", "--p", "37")
        assert code == 0
        assert len(sources) == len(set(sources)) < 1369
        assert (0, 0) in sources


def miscount(monkeypatch, factor):
    """Count every certified run ``factor`` times its length: walks of
    length 0 undercut the BFS distance; ten times their length, the
    longest overruns the bound."""
    real = planner._Builder.run

    def miscounting(b, kind, at, k=1):
        before = b.length
        real(b, kind, at, k)
        b.length = before + factor * (b.length - before)

    monkeypatch.setattr(planner._Builder, "run", miscounting)


def miscounted_verify(capsys, monkeypatch, factor, n, p):
    miscount(monkeypatch, factor)
    code, out, err = run(capsys, "verify", "--n", n, "--p", p)
    assert code == 1 and err == ""
    assert "FAIL  planner valid, admissible, within bound" in out
    # The plan from zero to Steinberg, planned whole, is refused for a
    # length over the bound, or reports one that its waypoints refute.
    assert "FAIL  canonical path valid, length equals bound" in out


def overshooting_verify(capsys, monkeypatch, piece, n, p):
    """Verify at (n, p) with one add_first too many after ``piece``: from a
    swept weight the finish no longer reaches K, and a finish ends one move
    past K.  From zero to Steinberg the walk takes both pieces, so
    plan(0,St) fails too."""
    real = getattr(planner, piece)

    def overshooting(b, *args):
        real(b, *args)
        b.run(planner._TRAVEL, 1)

    monkeypatch.setattr(planner, piece, overshooting)
    code, out, err = run(capsys, "verify", "--n", n, "--p", p)
    assert code == 1 and err == ""
    assert "FAIL  planner valid, admissible, within bound" in out
    assert "FAIL  plan(0,St) meets the bound exactly" in out
    assert out.endswith("some checks FAILED\n")


def checked_against_oracle(monkeypatch, n, p):
    """Run verify at (n, p) and compare its planner check with the
    per-pair loop over every ordered pair, its gaps over the same pairs;
    return the summary, the checks by name and the graph."""
    seen = []
    real = cli._check_plans

    def spy(g, pairs, rows):
        seen.append((g, pairs, real(g, pairs, rows)))
        return seen[-1][2]

    monkeypatch.setattr(cli, "_check_plans", spy)
    summary, checks, _ = cli.run_verification(n, p, 10**6)
    [(g, pairs, got)] = seen
    assert got == verify_oracle.check_plans(g, pairs)
    return summary, dict(checks), g


_CONNECTED, _DIAMETER = "strongly connected", "diameter equals (p-1)(n^2-n)/2"
_PLANNER = "planner valid, admissible, within bound"


_ORACLE_INSTANCES = [
    (n, p) for n in range(2, 8) for p in (2, 3, 5, 7) if p ** (n - 1) <= 729
]


class TestPlannerCheckOracle:
    """planner._check_plans, from shared sweeps, each key's longest suffixes and
    matrix rows, against the per-pair loop it replaced
    (tests/verify_oracle.py): the same longest plan, the same ok, the same
    plan(0,St) answer and the same gap figures."""

    @pytest.mark.parametrize("n, p", _ORACLE_INSTANCES)
    def test_every_exhaustive_instance(self, monkeypatch, n, p):
        summary, checks, g = checked_against_oracle(monkeypatch, n, p)
        assert summary["pair_mode"] == "exhaustive"
        # The certificate's verdicts against the bit-parallel traversal.
        traversed = graph_mod.subgraph_diameter(g)[0] == planner.length_bound(n, p)
        assert checks[_CONNECTED] == checks[_DIAMETER] == traversed

    def test_n2_with_a_key_per_vertex(self, monkeypatch):
        summary, _, _ = checked_against_oracle(monkeypatch, 2, 251)
        assert summary["pair_mode"] == "exhaustive"

    def test_sampled_pairs(self, monkeypatch):
        summary, _, _ = checked_against_oracle(monkeypatch, 3, 37)
        assert summary["pair_mode"] == "sampled"

    @pytest.mark.parametrize("n, p", [(4, 3), (4, 5)])
    def test_sampled_certificate_covers_every_pair(self, monkeypatch, n, p):
        # Below the vertex limit the pairs are sampled, and the verdicts and
        # the longest plan are still those of every ordered pair.
        monkeypatch.setattr(cli, "_EXHAUSTIVE_VERTICES", 8)
        summary, checks, g = checked_against_oracle(monkeypatch, n, p)
        assert summary["pair_mode"] == "sampled"
        everyone = range(len(g.vertices))
        longest, ok, _, _ = verify_oracle.check_plans(g, dict.fromkeys(everyone, everyone))
        diameter = max(max(row) for row in graph_oracle.all_pairs_distances(g))
        bound = planner.length_bound(n, p)
        assert longest == bound
        assert checks[_PLANNER] is ok is True
        assert checks[_DIAMETER] is (ok and diameter == bound) is True

    @pytest.mark.parametrize("factor", [0, 10])
    @pytest.mark.parametrize("n, p", [(3, 3), (4, 5)])
    def test_miscounted_lengths(self, monkeypatch, factor, n, p):
        miscounted_against_oracle(monkeypatch, factor, n, p)

    @pytest.mark.parametrize("factor", [0, 10])
    def test_miscounted_sampled_lengths(self, monkeypatch, factor):
        monkeypatch.setattr(cli, "_EXHAUSTIVE_VERTICES", 8)
        miscounted_against_oracle(monkeypatch, factor, 4, 3)


def miscounted_against_oracle(monkeypatch, factor, n, p):
    miscount(monkeypatch, factor)
    _, checks, _ = checked_against_oracle(monkeypatch, n, p)
    assert not checks[_PLANNER] and not checks[_DIAMETER]


class TestErrorHandling:
    def test_malformed_weight_exits_2(self, capsys):
        code, _, err = run(capsys, "f", "--weight", "1,0,x")
        assert code == 2 and "error:" in err

    def test_inconsistent_n_exits_2(self, capsys):
        code, _, err = run(capsys, "f", "--n", "5", "--weight", "1,0")
        assert code == 2 and "--n 5" in err

    def test_nonprime_p_rejected(self, capsys):
        code, _, err = run(capsys, "diameter", "--n", "2", "--p", "4")
        assert code == 2 and "not prime" in err

    def test_primality_matches_trial_division(self):
        for p in range(10**5):
            prime = p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
            assert cli._is_prime(p) == prime, p

    # Carmichael numbers, a product of two Mersenne primes, and the least
    # strong pseudoprime to the twelve prime bases up to 37.
    @pytest.mark.parametrize("p", [
        561, 41041, (2**31 - 1) * (2**61 - 1), 318665857834031151167461,
    ])
    def test_pseudoprimes_rejected(self, capsys, p):
        code, _, err = run(capsys, "moves", "--p", str(p), "--weight", "1")
        assert code == 2 and f"p = {p} is not prime" in err

    def test_nonprime_p_allowed_with_flag(self, capsys):
        code, out, _ = run(
            capsys, "diameter", "--n", "2", "--p", "4", "--allow-nonprime"
        )
        assert code == 0 and out == "3\n"

    def test_budget_exceeded_exits_2(self, capsys):
        code, _, err = run(
            capsys, "graph", "--n", "12", "--p", "7", "--budget", "100"
        )
        assert code == 2 and "exceed" in err

    def test_missing_n_exits_2(self, capsys):
        code, _, err = run(capsys, "diameter", "--p", "3")
        assert code == 2 and "needs --n" in err

    def test_invariant_violation_exits_1(self, capsys, monkeypatch):
        def broken(lam, mu, p):
            raise InvariantViolationError("plan ends at (1, 0), wanted (0, 1)")

        monkeypatch.setattr(cli, "plan_path", broken)
        code, out, err = run(capsys, "plan", "--p", "3", "--from", "0,0", "--to", "0,1")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "plan ends at" in err

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "diameter", "--n", "3", "--p", "2", "--output", str(tmp_path)
        )
        assert code == 2 and err.startswith("error:")

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestOutputHandling:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code = main(["diameter", "--n", "3", "--p", "2", "--output", str(target)])
        capsys.readouterr()
        assert code == 0
        assert target.read_text() == "3\n"

    def test_write_failing_partway_exits_2(self, capsys, monkeypatch):
        # The file opens, and then the disk is full.
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullDisk(), raising=False)
        code, out, err = run(capsys, "graph", "--n", "4", "--p", "3", "--format", "json",
                             "--output", "graph.json")
        assert code == 2 and out == ""
        assert err == "error: [Errno 28] No space left on device\n"

    def test_failed_stdout_write_exits_2(self, capsys, monkeypatch):
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        code, _, err = run(capsys, "plan", "--p", "3", "--from", "0,0", "--to", "2,2",
                           "--format", "json")
        assert code == 2 and err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("fmt, limit", [("json", 2), ("text", 0.5), ("dot", 2)])
    def test_a_long_plan_streams_to_its_file(self, capsys, tmp_path, fmt, limit):
        # The 7,800-move plan from zero to Steinberg at (40,11) is written
        # block by block: built whole, its JSON peaked at 6.5 MiB, its
        # text at 1.7 MiB and its DOT at 9.6 MiB; streamed they measure
        # about 1.1, 0.15 and 1.4 MiB, DOT's mostly its 7,801 rows.
        argv = ["plan", "--p", "11", "--from", ",".join(["0"] * 39),
                "--to", ",".join(["10"] * 39), "--format", fmt]
        target = tmp_path / f"plan.{fmt}"
        gc.collect()
        tracemalloc.start()
        try:
            code = main([*argv, "--output", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < limit * 2**20
        assert run(capsys, *argv) == (0, target.read_text(), "")

    def test_a_refused_matrix_leaves_no_file(self, capsys, monkeypatch, tmp_path):
        # The CSV view is built whole before the file is opened, so a matrix
        # over the memory limit is refused with no file left behind.
        monkeypatch.setattr(graph_mod, "DIAMETER_MEMORY_LIMIT", 10)
        target = tmp_path / "matrix.csv"
        code, out, err = run(capsys, "bfs", "--n", "3", "--p", "3", "--format", "csv",
                             "--output", str(target))
        assert (code, out) == (2, "") and err.startswith("error:")
        assert not target.exists()

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "graph", "--n", "3", "--p", "3", "--format", "json")
        _, second, _ = run(capsys, "graph", "--n", "3", "--p", "3", "--format", "json")
        assert first == second


def _dumps(obj) -> str:
    """The oracle: the stdlib's pure-Python indent encoder."""
    return json.dumps(obj, indent=2) + "\n"


# Strings that would break a naive re-indent of the compact C encoding.
_TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from(
        [", ", '"', "[", "{", "]", "}", "\n", "\\", "\u00e9", "\u2603", "\U0001f600", "a"]
    )).map("".join),
)
_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT)


@st.composite
def _plans(draw):
    """The ends and prime of a plan of rank 2..8 at p in {2, 3, 5, 7, 11},
    either end possibly zero or the Steinberg weight, and sometimes the
    empty plan."""
    n = draw(st.integers(2, 8))
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    weight = st.one_of(
        st.just((0,) * (n - 1)),
        st.just(steinberg_weight(n, p)),
        st.tuples(*[st.integers(0, p - 1)] * (n - 1)),
    )
    lam = draw(weight)
    return lam, draw(st.one_of(st.just(lam), weight)), p


_PLANS = _plans()
_LEAVES = st.one_of(
    _SCALARS,
    st.lists(st.one_of(st.integers(), st.booleans(), st.none())),  # flat lists
    st.lists(st.integers()).map(tuple),
    st.lists(st.lists(st.one_of(st.integers(), st.booleans(), st.none()), min_size=1)),  # rows
    st.lists(st.lists(st.integers(), min_size=1).map(tuple), min_size=1).map(tuple),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=5),
        st.tuples(inner, st.integers(2, 4)).map(lambda t: [t[0]] * t[1]),  # one object, repeated
    ),
    max_leaves=25,
)


def _plan_args(lam, mu, p) -> list[str]:
    return ["plan", "--p", str(p), "--from", ",".join(map(str, lam)),
            "--to", ",".join(map(str, mu)), "--format", "json"]


def _bfs_payload(n, p, source) -> dict:
    g = graph_oracle.build_certified_graph(n, p)
    distances = graph_oracle.bfs_distances(g, g.index_of(source))
    return {"n": n, "p": p, "source": list(source), "distances": [
        {"weight": list(w), "distance": d} for w, d in zip(g.vertices, distances)
    ]}


def _moves_payload(weight, p) -> dict:
    return {"weight": list(weight), "p": p, "moves": [
        {"move": move.to_json_dict(), "target": list(target)}
        for move, target in certified_moves(weight, p)
    ]}


def _validate_payload(src, tgt, p) -> dict:
    try:
        return {"move": validate_move(src, tgt, p).to_json_dict()}
    except NoSuchEdgeError as exc:
        return {"move": None, "error": str(exc)}


# Every command whose JSON holds a long list, each with the payload that
# json.dumps must reproduce, built from the objects' to_json_dict or the
# oracles.
_COMMAND_CASES = [
    (_plan_args((1,), (1,), 2), 0, lambda: plan_path((1,), (1,), 2).to_json_dict()),  # empty
    (_plan_args((3,), (0,), 5), 0, lambda: plan_path((3,), (0,), 5).to_json_dict()),
    (_plan_args((2, 2, 2), (0, 0, 0), 3), 0,
     lambda: plan_path((2, 2, 2), (0, 0, 0), 3).to_json_dict()),
    *[
        (["graph", "--n", str(n), "--p", str(p), "--format", "json"], 0,
         lambda n=n, p=p: graph_oracle.graph_json(n, p))
        for n, p in ((3, 2), (6, 2), (5, 3))
    ],
    (["bfs", "--n", "3", "--p", "3", "--from", "1,2", "--format", "json"], 0,
     lambda: _bfs_payload(3, 3, (1, 2))),
    (["bfs", "--n", "4", "--p", "5", "--from", "0,0,0", "--format", "json"], 0,
     lambda: _bfs_payload(4, 5, (0, 0, 0))),
    (["moves", "--p", "3", "--weight", "0,0,1", "--format", "json"], 0,
     lambda: _moves_payload((0, 0, 1), 3)),
    (["validate", "--p", "3", "--from", "2,0", "--to", "1,0", "--format", "json"], 0,
     lambda: _validate_payload((2, 0), (1, 0), 3)),
    (["validate", "--p", "3", "--from", "1,0", "--to", "1,1", "--format", "json"], 1,
     lambda: _validate_payload((1, 0), (1, 1), 3)),
]


# Dict objects that the payloads below hold several times, at two depths.
_LABEL = {"kind": "clear_forward", "s": 2}
_ADD_FIRST = {"kind": "add_first"}


class TestJsonEncoder:
    # Plain data with str keys: the lists and dicts deepen the indent of
    # whatever falls back to the stdlib.
    @settings(max_examples=300, deadline=None)
    @given(_PAYLOADS)
    def test_matches_json_dumps(self, payload):
        assert "".join(cli._json(payload)) == _dumps(payload)

    # The long lists of every command render themselves: the output must
    # be json.dumps of the payload that to_json_dict describes.
    @pytest.mark.parametrize("argv, code, reference", _COMMAND_CASES,
                             ids=[" ".join(argv[:-2]) for argv, _, _ in _COMMAND_CASES])
    def test_command_matches_reference(self, capsys, argv, code, reference):
        assert run(capsys, *argv)[:2] == (code, _dumps(reference()))

    # A plan's moves and waypoints render from its blocks, alone and
    # inside the plan's dict.
    @settings(max_examples=100, deadline=None)
    @given(_PLANS)
    def test_plan_command_matches_to_json_dict(self, ends):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(_plan_args(*ends)) == 0
        assert out.getvalue() == _dumps(plan_path(*ends).to_json_dict())

    # A graph's weight rows render in index order from one cell per entry
    # value, at any indent: at p = 2 and at a two-digit p, whose cells
    # differ in width.
    def test_weight_rows_match_json_dumps(self):
        for n, p, indent in product(range(2, 6), (2, 13), ("\n", "\n    ")):
            item = indent + "  "
            text = "[" + item + ("," + item).join(cli._weight_rows(n, p, item)) + indent + "]"
            weights = [list(w) for w in product(range(p), repeat=n - 1)]
            assert text == json.dumps(weights, indent=2).replace("\n", indent), (n, p, indent)

    # A plan's move labels come from one template per kind.
    @pytest.mark.parametrize("move", [
        Move("add_first"), Move("clear_last"), Move("clear_forward", 1), Move("clear_forward", 38),
    ], ids=str)
    @pytest.mark.parametrize("indent", ["\n", "\n      "], ids=["top", "nested"])
    def test_move_labels_match_generic_encoder(self, move, indent):
        text = json.dumps(move.to_json_dict(), indent=2).replace("\n", indent)
        assert cli._move_json(move, indent) == text

    # Lists of dicts, which the stdlib renders.
    @pytest.mark.parametrize("payload", [
        [{"a": 1, "b": 2}, {"b": 1, "a": 2}], [{"a": 1}, {"b": 1}], [{"a": {"b": 1}}],
        [{"a": []}, {"a": []}], [{"a": [1, 2]}, {"a": [3]}], [{"a": [1]}, {"a": [True]}],
        [{"a": 1}, {"a": True}], [{"a": (1, 2)}, {"a": [3, 4]}], [{"a{}": '"\u2603'}],
        [{"a": 1}, {"a": [1]}], [{1: 2}], [{"a": 1}, [1]], [{"a": [_ADD_FIRST]}],
    ])
    def test_record_fallbacks_match_json_dumps(self, payload):
        assert "".join(cli._json(payload)) == _dumps(payload)

    @pytest.mark.parametrize("payload", [
        [], {}, (), [[]], [{}], {"": []}, [1, [2]], [1, "a, b"], [1, _ADD_FIRST],
        [0.5, math.nan, -math.inf, True, None], [{1: 1, 2.5: 2, True: 3, None: 4}],
        [[1, [2], 3]], [[1, 2], 3], [[1, [2]], 3], [[1], []], [[]], [[[1]]], [(1, 2), [3]],
        [[math.nan, True, None], [-0.0, 1e300]],
        # Only lists of exact ints are one join.
        [1, True], [True, 1], (2**70, -1, 0), [[1, 2], [3, True]], [[1], (2, 3)],
        [1, 2.0, 3],
        [_LABEL, {"kind": "clear_last"}, _LABEL, _LABEL],
        [_LABEL, _ADD_FIRST, _LABEL, _ADD_FIRST],
        {"moves": [_LABEL, _LABEL], "nested": [[_LABEL, 1], [_LABEL]]},
        plan_path((3,), (0,), 5).to_json_dict(),  # n = 2 to zero: add_first, then clear_last
        {"plan": [plan_path((0,), (0,), 2).to_json_dict()]},  # the empty plan: "moves" is []
        [plan_path((2, 2, 2), (0, 0, 0), 3).to_json_dict()] * 2,
    ])
    def test_edge_cases_match_json_dumps(self, payload):
        assert "".join(cli._json(payload)) == _dumps(payload)

    def test_bad_key_is_type_error(self):
        # Payload keys are str literals; another key is refused, not
        # rendered wrong.
        with pytest.raises(TypeError):
            "".join(cli._json({(1, 2): 0}))

    def test_rendering_leaves_no_garbage_cycles(self, capsys):
        argv = _plan_args((0,) * 19, steinberg_weight(20, 7), 7)
        gc.collect()
        gc.disable()
        try:
            code, text, _ = run(capsys, *argv)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert code == 0
        # Digests, so a mismatch in these megabytes fails without a text diff.
        reference = plan_path((0,) * 19, steinberg_weight(20, 7), 7).to_json_dict()
        assert hashlib.sha256(text.encode()).hexdigest() == hashlib.sha256(
            _dumps(reference).encode()
        ).hexdigest()
