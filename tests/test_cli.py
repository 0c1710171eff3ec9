import os
import random
import subprocess
import sys

import pytest

import symfair as sf
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
    capsys.readouterr()


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


def test_solve_large_two_agent_instance(files, capsys):
    rng = random.Random(38)
    rows = [[rng.randint(0, 10**4) for _ in range(1500)] for _ in range(2)]
    inst = files("big.txt", "2 1500\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    assert main(["solve", inst]) == 0
    out = capsys.readouterr().out
    assert sf.is_symef1(sf.Instance.from_rows(rows), sf.parse_partition(out, 2, 1500))


def test_solve_constructive(files, capsys):
    inst = files("inst.txt", IDENTICAL)
    assert main(["solve", inst, "--strategy=constructive"]) == 0
    captured = capsys.readouterr()
    assert "constructive" in captured.err
    inst2 = files("inst2.txt", BLOCKER)
    assert main(["solve", inst2, "--strategy=constructive"]) == 1
    assert capsys.readouterr().out.strip() == "NOT_APPLICABLE"


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


def test_export_ip_writes_file(files, tmp_path, capsys):
    inst = files("inst.txt", BLOCKER)
    target = tmp_path / "model.lp"
    assert main(["export-ip", inst, f"--out={target}"]) == 0
    text = target.read_text()
    assert text.startswith("Minimize") and text.rstrip().endswith("End")
    assert "x_3_4" in text
    capsys.readouterr()


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


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def test_import_leaves_numpy_unloaded():
    script = (
        "import sys, symfair, symfair.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported eagerly'\n"
        "assert symfair.random_instance is symfair.sim.random_instance\n"
        "assert symfair.SimConfig.__name__ == 'SimConfig'\n"
        "assert 'numpy' in sys.modules\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=_subprocess_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert set(sf.__all__) >= {"SimConfig", "SimReport", "emit_csv", "random_instance",
                               "replication_seed", "run_simulation"}
    with pytest.raises(AttributeError):
        sf.no_such_name


def test_solve_unverified_partition_exits_4(files, capsys, monkeypatch):
    inst = files("inst.txt", WELFARE)
    monkeypatch.setattr("symfair.cli.is_symef1", lambda inst, partition: False)
    assert main(["solve", inst, "--strategy=heuristic"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("internal error: RuntimeError: the heuristic")
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

    def broken(graph, k):
        raise RuntimeError("bad\nstate")

    monkeypatch.setattr("symfair.cli.k_color", broken)
    assert main(["color", inst, "--k=3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: bad state\n"
