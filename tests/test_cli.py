import argparse
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import symfair as sf
from symfair import cli
from symfair.cli import _parse_int_list, main

BLOCKER = "3 4\n1 1 1 0\n1 1 0 1\n1 0 1 1\n"
CLIQUE = "3 6\n1 2 3 4 5 6\n1 2 4 3 5 6\n1 2 4 5 3 6\n"
WELFARE = "2 6\n1 2 3 4 5 6\n3 1 3 1 3 1\n"
IDENTICAL = "3 6\n6 5 4 3 2 1\n6 5 4 3 2 1\n6 5 4 3 2 1\n"
UNIQUE = "2 3\n100 50 51\n100 51 50\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_check_satisfied(files, capsys):
    inst = files("inst.txt", CLIQUE)
    part = files("part.txt", "1 6\n3 5\n2 4\n")
    assert main(["check", inst, part, "--mode=symef1"]) == 0
    assert capsys.readouterr().out.strip() == "SATISFIED"


def test_check_violated_reports_witness(files, capsys):
    inst = files("inst.txt", BLOCKER)
    part = files("part.txt", "1 2\n3\n4\n")
    assert main(["check", inst, part, "--mode=symef1"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("VIOLATED i=1 k=3 l=1:")
    assert "0 < 1" in out


def test_check_other_modes(files, capsys):
    inst = files("inst.txt", WELFARE)
    balanced = files("p1.txt", "1 3 5\n2 4 6\n")
    lopsided = files("p2.txt", "1\n2 3 4 5 6\n")
    assert main(["check", inst, balanced, "--mode=balanced"]) == 0
    assert main(["check", inst, lopsided, "--mode=balanced"]) == 1
    # Bundle k goes to agent k in ef1 mode; this split is envy-free that way.
    envy_free = files("p5.txt", "2 4 6\n1 3 5\n")
    assert main(["check", inst, envy_free, "--mode=ef1"]) == 0
    assert main(["check", inst, balanced, "--mode=ef1"]) == 1
    symefx_inst = files("p3.txt", "2 3\n100 50 50\n100 50 50\n")
    part = files("p4.txt", "2\n1 3\n")
    assert main(["check", symefx_inst, part, "--mode=symef1"]) == 0
    assert main(["check", symefx_inst, part, "--mode=symefx"]) == 1
    capsys.readouterr()


def test_check_malformed_inputs_exit_2(files, capsys):
    bad = files("bad.txt", "2 2\n1 x\n3 4\n")
    part = files("p.txt", "1\n2\n")
    assert main(["check", bad, part]) == 2
    inst = files("inst.txt", "2 2\n1 2\n3 4\n")
    short = files("short.txt", "1\n")
    assert main(["check", inst, short]) == 2
    assert main(["check", inst, files("gap.txt", "1\n\n")]) == 2
    assert main(["check", str(files("inst.txt", BLOCKER)) + ".nope", part]) == 2
    latin1 = files("latin1.txt", "")
    with open(latin1, "wb") as fh:
        fh.write("2 2\n1 2\n3 4 \xe9\n".encode("latin-1"))
    assert main(["check", latin1, part]) == 2
    capsys.readouterr()


def test_byte_order_mark_is_accepted(tmp_path, capsys):
    # A UTF-8 file may start with a byte-order mark; it is not part of the text.
    def bom_file(name, text):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        return str(path)

    inst = bom_file("inst.txt", "2 2\n1 2\n2 1\n")
    assert main(["solve", inst]) == 0
    solved = capsys.readouterr().out
    part = bom_file("part.txt", solved)
    assert main(["check", inst, part]) == 0
    assert capsys.readouterr().out == "SATISFIED\n"


def test_option_errors_exit_2(files, capsys):
    inst = files("inst.txt", CLIQUE)
    big = files("big.txt", "3 20\n" + "1 " * 20 + "\n" + ("2 " * 20 + "\n") * 2)
    sim = ["simulate", "--n", "2", "--m", "3", "--max-value", "10", "--workers", "1"]
    cases = [
        ["color", inst, "--k=0"],
        ["color", inst, "--k=3", "--node-budget=0"],
        ["color", inst, "--k=3", "--time-budget=nan"],
        ["solve", inst, "--strategy=exact", "--node-budget=0"],
        ["solve", inst, "--node-budget=0"],
        ["solve", inst, "--time-budget=nan"],
        ["solve", inst, "--strategy=heuristic", "--time-budget=-1"],
        ["solve", inst, "--strategy=constructive", "--node-budget=0"],
        ["enumerate", inst, "--time-budget=-1"],
        ["enumerate", inst, "--time-budget=nan"],
        ["enumerate", big],
        ["mnw", big],
        sim + ["--reps", "0"],
        sim + ["--max-value", "-1"],
        sim + ["--max-value", str(2**63)],
        sim + ["--n", "2..x"],
        sim + ["--m", ","],
        sim + ["--workers", "0"],
        sim + ["--seed", "-1"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv


def test_solve_roundtrips_through_check(files, capsys, tmp_path):
    inst = files("inst.txt", WELFARE)
    for strategy in ("auto", "coloring", "heuristic", "exact"):
        assert main(["solve", inst, f"--strategy={strategy}"]) == 0
        captured = capsys.readouterr()
        assert "solved by:" in captured.err
        out_path = tmp_path / f"{strategy}.part"
        out_path.write_text(captured.out)
        assert main(["check", inst, str(out_path), "--mode=symef1"]) == 0
        capsys.readouterr()


def _uniform_file(files, rng, n, m):
    """A uniform n x m instance with values in 0..10^4, as (path, instance)."""
    rows = [[rng.randint(0, 10**4) for _ in range(m)] for _ in range(n)]
    text = f"{n} {m}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
    return files(f"uniform-{n}x{m}.txt", text), sf.Instance.from_rows(rows)


def test_solve_large_two_agent_instance(files, capsys):
    path, inst = _uniform_file(files, random.Random(38), 2, 1500)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert sf.is_symef1(inst, sf.parse_partition(out, 2, 1500))


@pytest.mark.parametrize("strategy", ["coloring", "heuristic"])
def test_solve_two_agents_up_to_m_2000(files, capsys, strategy):
    # Two-agent conflict graphs are always 2-colorable, and both stages must
    # answer at this size in well under a second.
    rng = random.Random(39)
    for m in sorted(rng.sample(range(1, 2000), 4)) + [2000]:
        path, inst = _uniform_file(files, rng, 2, m)
        assert main(["solve", path, f"--strategy={strategy}"]) == 0
        out = capsys.readouterr().out
        assert sf.is_symef1(inst, sf.parse_partition(out, 2, m))


def test_color_two_agents_m_2000(files, capsys):
    path, inst = _uniform_file(files, random.Random(40), 2, 2000)
    assert main(["color", path, "--k=2"]) == 0
    out = capsys.readouterr().out
    assert sf.is_symef1(inst, sf.parse_partition(out, 2, 2000))


def test_solve_coloring_three_agents_m_300_not_applicable(files, capsys):
    # A uniform 3x300 conflict graph is not 3-colorable; the search must
    # exhaust it and report that the sufficient condition does not apply.
    path, _ = _uniform_file(files, random.Random(41), 3, 300)
    assert main(["solve", path, "--strategy=coloring"]) == 1
    assert capsys.readouterr().out == "NOT_APPLICABLE\n"


def test_coloring_out_of_budget(files, capsys):
    # A uniform 3x60 conflict graph is not 3-colorable. When k_color runs out
    # of budget, the coloring stage alone and `color` exit 3. The auto call
    # checks that the greedy builder answers first; auto's own budget exit is
    # test_auto_budget_runs_out_in_the_complete_search.
    path, inst = _uniform_file(files, random.Random(60), 3, 60)
    assert main(["solve", path, "--strategy=coloring"]) == 1
    assert capsys.readouterr().out == "NOT_APPLICABLE\n"
    assert main(["solve", path, "--strategy=coloring", "--node-budget=5"]) == 3
    assert capsys.readouterr().out == "BUDGET_EXCEEDED\n"
    assert main(["solve", path, "--node-budget=5"]) == 0
    captured = capsys.readouterr()
    assert "solved by: heuristic" in captured.err
    assert sf.is_symef1(inst, sf.parse_partition(captured.out, 3, 60))
    assert main(["color", path, "--k=3", "--node-budget=5"]) == 3
    assert capsys.readouterr().out == "BUDGET_EXCEEDED\n"


# The greedy builder fails on this instance and its conflict graph is 3-colorable.
GREEDY_MISS = "3 5\n8 10 10 1 0\n2 5 0 5 9\n2 7 6 10 3\n"


def test_auto_stops_at_the_greedy_builder(files, capsys, monkeypatch):
    # Where the greedy builder answers, the complete search never starts. On
    # the 3x150 draw the builder gets stuck in index order and answers in
    # descending total value order, so auto must hand --order to it.
    def refuse(*args):
        raise AssertionError("exact_symef1 called although the greedy builder answered")

    monkeypatch.setattr("symfair.cli.exact_symef1", refuse)
    for seed, m, options in ((41, 300, []),
                             ("stage:uniform:3:150:2", 150, ["--order=desc-total-value"])):
        path, inst = _uniform_file(files, random.Random(seed), 3, m)
        assert main(["solve", path, *options]) == 0
        captured = capsys.readouterr()
        assert "solved by: heuristic" in captured.err
        assert sf.is_symef1(inst, sf.parse_partition(captured.out, 3, m))


def test_auto_searches_where_greedy_fails(files, capsys, monkeypatch):
    # Where the greedy builder fails, auto goes on to the complete search and
    # prints its first witness; the coloring search never starts.
    path = files("miss.txt", GREEDY_MISS)
    assert main(["solve", path, "--strategy=heuristic"]) == 1
    assert capsys.readouterr().out == "NOT_FOUND\n"

    def refuse(*args):
        raise AssertionError("k_color called by solve --strategy=auto")

    monkeypatch.setattr("symfair.cli.k_color", refuse)
    assert main(["solve", path]) == 0
    captured = capsys.readouterr()
    assert "solved by: exact (complete search)" in captured.err
    inst = sf.parse_instance(GREEDY_MISS)
    assert captured.out == sf.format_partition(sf.exact_symef1(inst).partition)
    assert sf.is_symef1(inst, sf.parse_partition(captured.out, 3, 5))


def test_auto_budget_runs_out_in_the_complete_search(files, capsys, monkeypatch):
    # The coloring stage alone runs out of budget (exit 3). In auto the
    # complete search is the one stage with a budget: it runs out once, and
    # solve reports that (exit 3).
    path = files("miss.txt", GREEDY_MISS)
    assert main(["solve", path, "--strategy=coloring", "--node-budget=1"]) == 3
    assert capsys.readouterr().out == "BUDGET_EXCEEDED\n"
    outcomes = []

    def exact(inst, limits):
        outcomes.append(sf.exact_symef1(inst, limits))
        return outcomes[-1]

    monkeypatch.setattr("symfair.cli.exact_symef1", exact)
    assert main(["solve", path, "--node-budget=1"]) == 3
    assert capsys.readouterr().out == "BUDGET_EXCEEDED\n"
    assert [o.status for o in outcomes] == [sf.ExactStatus.BUDGET_EXCEEDED]


def test_solve_constructive(files, capsys):
    inst = files("inst.txt", IDENTICAL)
    assert main(["solve", inst, "--strategy=constructive"]) == 0
    captured = capsys.readouterr()
    assert "constructive" in captured.err
    inst2 = files("inst2.txt", BLOCKER)
    assert main(["solve", inst2, "--strategy=constructive"]) == 1
    assert capsys.readouterr().out.strip() == "NOT_APPLICABLE"
    # Two agents whose rows overlap are not grouped, yet the stage answers.
    inst3 = files("inst3.txt", WELFARE)
    assert main(["solve", inst3, "--strategy=constructive"]) == 0
    captured = capsys.readouterr()
    assert "solved by: constructive" in captured.err
    partition = sf.parse_partition(captured.out, 2, 6)
    assert partition == sf.two_agent_partition(sf.parse_instance(WELFARE))


def test_auto_answers_two_agents_in_closed_form(files, capsys, monkeypatch):
    # The constructive stage answers every two-agent instance, so the greedy
    # builder never runs.
    path, inst = _uniform_file(files, random.Random(16), 2, 1500)

    def refuse(*args):
        raise AssertionError("greedy_symef1 called on a two-agent instance")

    monkeypatch.setattr("symfair.cli.greedy_symef1", refuse)
    assert main(["solve", path]) == 0
    captured = capsys.readouterr()
    assert "solved by: constructive" in captured.err
    assert sf.is_symef1(inst, sf.parse_partition(captured.out, 2, 1500))


def test_solve_heuristic_prints_the_greedy_partition(files, capsys):
    rng = random.Random(17)
    for n, m in ((2, 9), (2, 40), (3, 12)):
        path, inst = _uniform_file(files, rng, n, m)
        assert main(["solve", path, "--strategy=heuristic"]) == 0
        captured = capsys.readouterr()
        assert "solved by: heuristic" in captured.err
        assert captured.out == sf.format_partition(sf.greedy_symef1(inst).partition)


def test_solve_coloring_not_applicable_is_not_infeasible(files, capsys):
    inst = files("inst.txt", CLIQUE)
    assert main(["solve", inst, "--strategy=coloring"]) == 1
    assert capsys.readouterr().out.strip() == "NOT_APPLICABLE"
    # The auto pipeline keeps going and still finds a partition.
    assert main(["solve", inst, "--strategy=auto"]) == 0
    captured = capsys.readouterr()
    assert "solved by:" in captured.err


def test_solve_infeasible_instance(files, capsys):
    inst = files("inst.txt", BLOCKER)
    assert main(["solve", inst, "--strategy=auto"]) == 1
    captured = capsys.readouterr()
    assert captured.out.strip() == "INFEASIBLE"


def test_solve_heuristic_stats_line(files, capsys):
    inst = files("inst.txt", WELFARE)
    assert main(["solve", inst, "--strategy=heuristic", "--order=desc-total-value"]) == 0
    captured = capsys.readouterr()
    assert "case1=" in captured.err and "case2=" in captured.err


def test_solve_random_order_is_fixed_by_seed(files, capsys):
    # On this draw the index order fails and the seeded random order succeeds.
    path, inst = _uniform_file(files, random.Random("stage:uniform:3:150:2"), 3, 150)
    assert not sf.greedy_symef1(inst).found
    runs = []
    for _ in range(2):
        assert main(["solve", path, "--strategy=heuristic", "--order=random", "--seed=1"]) == 0
        runs.append(capsys.readouterr())
    assert runs[0] == runs[1]
    out = runs[0].out
    assert "case1=122 case2=26 case3=2" in runs[0].err
    order = sf.order_items(inst, "random", seed=1)
    assert out == sf.format_partition(sf.greedy_symef1(inst, order).partition)
    assert main(["check", path, files("random.part", out), "--mode=symef1"]) == 0
    capsys.readouterr()


def test_solve_heuristic_not_found(files, capsys):
    inst = files("inst.txt", BLOCKER)
    assert main(["solve", inst, "--strategy=heuristic"]) == 1
    captured = capsys.readouterr()
    assert captured.out.strip() == "NOT_FOUND"
    assert "case1=" in captured.err


def test_solve_budget_exhaustion_exit_3(files, capsys):
    rows = ["4 10"] + ["9 8 7 6 5 4 3 2 1 9" for _ in range(4)]
    inst = files("inst.txt", "\n".join(rows) + "\n")
    assert main(["solve", inst, "--strategy=exact", "--node-budget=2"]) == 3
    assert capsys.readouterr().out.strip() == "BUDGET_EXCEEDED"


def test_graph_emits_dot(files, capsys, tmp_path):
    inst = files("inst.txt", CLIQUE)
    assert main(["graph", inst]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph G {") and out.count("--") == 13
    target = tmp_path / "g.dot"
    assert main(["graph", inst, f"--out={target}"]) == 0
    assert target.read_text() == out


def test_color_reports_infeasible_and_classes(files, capsys):
    inst = files("inst.txt", CLIQUE)
    assert main(["color", inst, "--k=3"]) == 1
    assert capsys.readouterr().out.strip() == "INFEASIBLE k=3"
    assert main(["color", inst, "--k=5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    seen = sorted(int(tok) for line in lines for tok in line.split())
    assert seen == [1, 2, 3, 4, 5, 6]


def test_color_output_is_every_class_for_any_k(files, capsys):
    # k lines: the used colors' bundles, then one empty line per unused color.
    for text in ("1 3\n1 2 3\n", "2 0\n", CLIQUE, BLOCKER):
        path = files("inst.txt", text)
        graph = sf.build_item_graph(sf.parse_instance(text))
        for k in (1, 2, 3, 4, 5, 9):
            coloring = sf.k_color(graph, k)
            if coloring is None:
                continue
            assert main(["color", path, f"--k={k}"]) == 0
            want = sf.format_partition(sf.coloring_to_partition(coloring, k))
            assert capsys.readouterr().out == want, (text, k)
        # At k >= m the coloring no longer depends on k; the empty lines go
        # out 65536 at a time, so test either side of a chunk.
        for k in (65536, 65537, 65539, 65540, 131075):
            assert main(["color", path, f"--k={k}"]) == 0
            assert capsys.readouterr().out == want + "\n" * (k - 9), (text, k)


def test_color_memory_does_not_grow_with_k(files, monkeypatch):
    path = files("inst.txt", "1 3\n1 2 3\n")

    class LineCounter:
        lines = 0

        def write(self, text):
            self.lines += text.count("\n")

    sink = LineCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["color", path, "--k=1000000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == 10**6
    assert peak < 16 * 2**20


def test_enumerate_lists_partitions(files, capsys):
    inst = files("inst.txt", UNIQUE)
    assert main(["enumerate", inst]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["1 | 2 3"]
    assert "count=1" in captured.err


def test_mnw_outputs_partition_and_welfare(files, capsys, tmp_path):
    inst = files("inst.txt", WELFARE)
    assert main(["mnw", inst]) == 0
    captured = capsys.readouterr()
    assert "nash_welfare=108" in captured.err
    part = tmp_path / "mnw.part"
    part.write_text(captured.out)
    parsed = sf.parse_partition(captured.out, n=2, m=6)
    assert parsed.bundles[0] == frozenset({1, 3, 5})


def test_enumeration_guard_names_the_cli_option(files, capsys):
    # 3^20 is past the n^m guard; the CLI user needs --force, not force=True.
    path = files("big.txt", "3 20\n" + ("1 " * 20 + "\n") * 3)
    for command in ("enumerate", "mnw"):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--force" in captured.err, command
        # --force lets the walk start; the budget then stops it.
        assert main([command, path, "--force", "--node-budget=5"]) == 3
        assert capsys.readouterr().out == "BUDGET_EXCEEDED\n", command


def test_export_ip_writes_file(files, tmp_path, capsys):
    inst = files("inst.txt", BLOCKER)
    target = tmp_path / "model.lp"
    assert main(["export-ip", inst, f"--out={target}"]) == 0
    text = target.read_text()
    assert text.startswith("Minimize") and text.rstrip().endswith("End")
    assert "x_3_4" in text
    capsys.readouterr()
    # Without --out the model goes to stdout, also when there are no items.
    assert main(["export-ip", files("empty.txt", "2 0\n")]) == 0
    assert capsys.readouterr().out == "Minimize\n obj:\nSubject To\nEnd\n"


def test_simulate_small_grid(files, tmp_path, capsys):
    target = tmp_path / "out.csv"
    code = main(
        [
            "simulate", "--n", "2", "--m", "3..4", "--max-value", "10",
            "--reps", "20", "--seed", "1", "--workers", "1", f"--out={target}",
        ]
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0].startswith("n,m,M,replications,pct_symef1")
    assert len(lines) == 3
    assert lines[1].startswith("2,3,10,20,100.000")
    capsys.readouterr()


def test_simulate_warns_once_per_cell_with_exclusions(capsys):
    argv = ["simulate", "--n", "3", "--m", "4", "--max-value", "10", "--reps", "20",
            "--node-budget", "1", "--workers", "1"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    warning = ("warning: n=3 m=4 M=10: 8 replications exceeded the search budget "
               "and were excluded\n")
    assert captured.err.count(warning) == 1
    header, row = captured.out.splitlines()
    assert row.rsplit(",", 1)[0] == "3,4,10,20,100.000,89.583,10.417,0.000,0.000"


def test_simulate_bad_out_path_exits_2_before_any_cell(tmp_path, capsys, monkeypatch):
    # A typo in --out must not throw away a long run: the path is opened first.
    calls = []
    monkeypatch.setattr("symfair.sim.run_simulation", lambda *a, **k: calls.append(a) or [])
    target = tmp_path / "missing" / "out.csv"
    argv = ["simulate", "--n", "3", "--m", "5..9", "--max-value", "100", "--reps", "300",
            f"--out={target}"]
    assert main(argv) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err


def test_parse_int_list():
    assert _parse_int_list("3,4,5") == (3, 4, 5)
    assert _parse_int_list("5..10,15") == (5, 6, 7, 8, 9, 10, 15)
    assert _parse_int_list("7") == (7,)
    with pytest.raises(ValueError):
        _parse_int_list(",")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "symfair" in capsys.readouterr().out


def test_parser_built_once_without_state_between_calls(files, capsys, monkeypatch):
    # main reuses one parser; a call's options, defaults and errors must not
    # reach the next call, so the last plain solve runs auto at the default budget.
    # argparse copies a subcommand's options from a fresh inner namespace, so a
    # shared outer Namespace would leak only other subcommands' attributes:
    # the namespaces themselves are checked too.
    path = files("miss.txt", GREEDY_MISS)
    parsed = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording_parse_args(self, *args, **kwargs):
        parsed.append(parse_args(self, *args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert main(["solve", path, "--strategy=exact", "--node-budget=1"]) == 3
    capsys.readouterr()
    assert main(["solve", path]) == 0
    assert "solved by: exact" in capsys.readouterr().err
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert len(parsed) == 2 and parsed[0] is not parsed[1]
    defaults = sf.SearchLimits()
    assert {k: v for k, v in vars(parsed[1]).items() if k != "handler"} == {
        "command": "solve",
        "instance": path,
        "strategy": "auto",
        "order": "index",
        "seed": None,
        "node_budget": defaults.node_budget,
        "time_budget": defaults.time_budget,
    }


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def test_import_leaves_numpy_unloaded():
    script = (
        "import sys, symfair, symfair.cli\n"
        "assert symfair.exact.exact_symef1 is symfair.exact_symef1\n"
        "assert symfair.tuples is sys.modules['symfair.tuples']\n"
        "assert 'numpy' not in sys.modules, 'numpy imported eagerly'\n"
        "assert symfair.random_instance is symfair.sim.random_instance\n"
        "assert symfair.SimConfig.__name__ == 'SimConfig'\n"
        "for name in ('numpy', 'concurrent.futures.process', 'dataclasses', 'inspect'):\n"
        "    assert name not in sys.modules, name + ' imported with symfair.sim'\n"
        "symfair.random_instance(2, 3, 10, seed=1)\n"
        "assert 'numpy' in sys.modules, 'the first draw did not load numpy'\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=_subprocess_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert set(sf.__all__) >= {"SimConfig", "SimReport", "emit_csv", "random_instance",
                               "replication_seed", "run_simulation"}


def test_package_serves_every_public_name():
    namespace = {}
    exec("from symfair import *", namespace)
    for name in sf.__all__:
        assert namespace[name] is getattr(sf, name)
        assert name in dir(sf)
    for module in sf._SUBMODULES:
        assert sf.__getattr__(module) is sys.modules[f"symfair.{module}"]
    with pytest.raises(AttributeError):
        sf.no_such_name


def _added_modules(code):
    """Modules that ``code`` loads in a fresh interpreter beyond those of a bare one.

    The baseline is measured rather than written down, because ``site`` loads
    different stdlib modules on different hosts.
    """

    def loaded(source):
        result = subprocess.run(
            [sys.executable, "-c", source + "\nimport sys\nprint(*sys.modules)\n"],
            env=_subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        return set(result.stdout.splitlines()[-1].split())

    return loaded(code) - loaded("")


def test_check_loads_no_engine_and_no_command_loads_dataclasses(files):
    inst = files("inst.txt", CLIQUE)
    part = files("part.txt", "1 6\n3 5\n2 4\n")
    run = "from symfair.cli import main\nassert main({!r}) == {}"
    check = _added_modules(run.format(["check", inst, part], 0))
    assert "symfair.core" in check
    assert not check & {"symfair.exact", "symfair.heuristic", "symfair.tuples",
                        "symfair.constructive", "symfair.sim", "dataclasses", "inspect", "numpy"}
    # Every other command loads the engines it uses and no others: a solve, those
    # of the stages it runs; auto never runs the coloring, and the complete
    # search imports only core.
    blocker = files("blocker.txt", BLOCKER)
    lp = os.path.join(os.path.dirname(blocker), "model.lp")
    for argv, code, loads in (
        (["solve", files("solve.txt", CLIQUE)], 0,
         {"symfair.constructive", "symfair.heuristic"}),  # the greedy builder
        (["solve", files("two.txt", WELFARE)], 0,
         {"symfair.constructive"}),  # two agents: the closed form
        (["solve", blocker], 1,
         {"symfair.constructive", "symfair.heuristic", "symfair.exact"}),  # infeasible
        (["export-ip", blocker, f"--out={lp}"], 0, {"symfair.exact"}),
        (["enumerate", blocker], 0, {"symfair.exact"}),
        (["mnw", blocker], 0, {"symfair.exact"}),
        (["graph", blocker], 0, {"symfair.tuples"}),
        (["color", blocker, "--k=5"], 0, {"symfair.tuples"}),
        (["simulate", "--n", "3", "--m", "5", "--max-value", "100", "--reps", "2", "--seed",
          "1", "--workers", "1"], 0, {"symfair.sim", "symfair.exact", "symfair.heuristic"}),
    ):
        loaded = _added_modules(run.format(argv, code))
        assert {name for name in loaded if name.startswith("symfair.")} == {
            "symfair.cli", "symfair.core", *loads}, argv
        if "symfair.sim" in loads:
            # The first draw loads numpy, which imports inspect itself; a
            # serial run starts no process pool.
            assert "numpy" in loaded, argv
            assert not loaded & {"dataclasses", "concurrent.futures.process"}, argv
        else:
            assert not loaded & {"dataclasses", "inspect", "numpy"}, argv


def test_engine_bind_keeps_a_patched_name(files):
    # perfbench's tracer and the tests patch engine names in symfair.cli before
    # any command has bound them; the bind must not put the originals back.
    inst = files("inst.txt", CLIQUE)
    script = (
        "import symfair.cli as c\n"
        "def boom(*args):\n"
        "    raise RuntimeError('patched k_color')\n"
        "c.k_color = boom\n"
        f"assert c.main(['solve', {inst!r}, '--strategy=coloring']) == 4\n"
        "assert c.k_color is boom\n"
        "from perfbench.tracing import TRACE_POINTS\n"
        "for _, module, attr, _ in TRACE_POINTS:\n"
        "    if module == 'symfair.cli':\n"
        "        getattr(c, attr)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = subprocess.run(
        [sys.executable, "-c", script], env=_subprocess_env(), cwd=root, capture_output=True,
        text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == "internal error: RuntimeError: patched k_color\n"


def test_engine_names_bind_once_in_main_and_never_for_check(files):
    # A command keeps here the engine names it looked up, each the package's
    # own object, and no other: graph uses two, check none.
    inst = files("inst.txt", CLIQUE)
    part = files("part.txt", "1 6\n3 5\n2 4\n")
    script = (
        "import sys, symfair, symfair.cli as c\n"
        "engines = {'constructive', 'exact', 'heuristic', 'tuples'}\n"
        "command = sys.argv[1:]\n"
        "assert c.main(command) == 0\n"
        "bound = sorted(name for name, home in symfair._HOME.items()\n"
        "               if home in engines and name in vars(c))\n"
        "expected = {'check': [], 'graph': ['build_item_graph', 'graph_to_dot']}[command[0]]\n"
        "assert bound == expected, bound\n"
        "for name in bound:\n"
        "    assert vars(c)[name] is getattr(symfair, name), name\n"
    )
    for command in (["graph", inst], ["check", inst, part]):
        result = subprocess.run(
            [sys.executable, "-c", script, *command], env=_subprocess_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr


def test_solve_unverified_partition_exits_4(files, capsys, monkeypatch):
    # A partition the check refuses, and one with a bundle count the check
    # raises ValueError on (one bundle for two agents), are both internal errors.
    inst = files("inst.txt", WELFARE)
    one_bundle = sf.HeuristicResult(sf.Partition.of(set(range(6))), sf.HeuristicStats())
    for target, fake in (("symfair.cli.is_symef1", lambda inst, partition: False),
                         ("symfair.cli.greedy_symef1", lambda inst, order: one_bundle)):
        with monkeypatch.context() as patch:
            patch.setattr(target, fake)
            assert main(["solve", inst, "--strategy=heuristic"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "internal error: RuntimeError: "
            "the heuristic stage returned a partition that is not symEF1"
        )
        assert "Traceback" not in captured.err


def test_solve_verification_survives_optimized_mode(files):
    inst = files("inst.txt", WELFARE)
    script = (
        "import sys, symfair.cli as c\n"
        "c.is_symef1 = lambda inst, partition: False\n"
        f"sys.exit(c.main(['solve', {inst!r}, '--strategy=heuristic']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=_subprocess_env(), capture_output=True,
        text=True, timeout=60,
    )
    assert result.returncode == 4
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1].startswith("internal error:")


def test_unexpected_exception_exits_4_with_one_line(files, capsys, monkeypatch):
    inst = files("inst.txt", CLIQUE)

    def broken(graph, k, limits):
        raise RuntimeError("bad\nstate")

    monkeypatch.setattr("symfair.cli.k_color", broken)
    assert main(["color", inst, "--k=3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: bad state\n"


def test_library_value_error_is_internal_not_input(files, capsys, monkeypatch):
    # A ValueError raised inside the program is a bug, not a bad input file.
    inst = files("inst.txt", CLIQUE)

    def broken(graph, k, limits):
        raise ValueError("inconsistent frame stack")

    monkeypatch.setattr("symfair.cli.k_color", broken)
    assert main(["color", inst, "--k=3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError: inconsistent frame stack\n"
