import csv
import io
import multiprocessing
import os
import random
import re
import time

import pytest

from fmpart import cli
from fmpart.cli import (
    ROW_FIELDS,
    SUMMARY_FIELDS,
    TaskFailure,
    format_gain_mu,
    gain_mu,
    load_document,
    main,
    run_experiment,
    write_rows_csv,
    write_summary_csv,
)
from fmpart.fm import FmConfig, fm_run
from fmpart.netlist_io import NetlistFormatError, parse_hgr
from fmpart.pairwise import variant_run
from fmpart.synth import clustered_hypergraph

FIVE_CELL_HGR = "3 5\n4 5\n3 5\n1 2 5\n"
H4_HGR = "2 4\n1 3\n2 4\n"
# plain IBM .net: nets (a0, a1) and (a2, a0) over three cells
PLAIN_NET = "0\n4\n2\n3\n0\na0 s\na1 l\na2 s\na0 l\n"


@pytest.fixture
def fixture_files(tmp_path):
    star = tmp_path / "star.hgr"
    star.write_text(FIVE_CELL_HGR)
    quad = tmp_path / "quad.hgr"
    quad.write_text(H4_HGR)
    return star, quad


def normalize_elapsed(text: str) -> str:
    return re.sub(r"\d+\.\d{3}$", "ms", text, flags=re.MULTILINE)


def fail_one_task(monkeypatch, label: str, algorithm: str, seed: int) -> None:
    """Make the (label, algorithm, seed) task raise RuntimeError("injected")."""
    real = cli._execute

    def execute(task):
        if task[:2] == (label, algorithm) and task[3].seed == seed:
            raise RuntimeError("injected")
        return real(task)

    monkeypatch.setattr(cli, "_execute", execute)


class TestGainMu:
    def test_table_one_reference_rows(self):
        assert format_gain_mu(gain_mu(1534, 858)) == "44.06"
        assert format_gain_mu(gain_mu(1595, 529), decimals=1) == "66.8"

    def test_identical_cuts(self):
        assert format_gain_mu(gain_mu(7, 7)) == "0.00"

    def test_raw_value_is_exact(self):
        assert gain_mu(1534, 858) == (1534 - 858) / 1534 * 100.0
        assert gain_mu(200, 50) == 75.0

    def test_negative_when_variant_worse(self):
        value = gain_mu(100, 110)
        assert value < 0
        assert format_gain_mu(value) == "-10.00"

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            gain_mu(0, 0)

    def test_truncation_never_rounds_up(self):
        assert format_gain_mu(58.999) == "58.99"
        assert format_gain_mu(44.0678) == "44.06"


class TestRunExperiment:
    def test_row_layout_and_summary(self, fixture_files):
        star, _ = fixture_files
        h = load_document(str(star)).to_hypergraph()
        rows, summary = run_experiment(
            [("star", h)], ["fm", "fm_variant"], [1, 2, 3], FmConfig(seed=1)
        )
        assert len(rows) == 6
        assert [r.algorithm for r in rows] == ["fm"] * 3 + ["fm_variant"] * 3
        assert [r.seed for r in rows] == [1, 2, 3, 1, 2, 3]
        assert all(r.optimal_cut <= r.initial_cut for r in rows)
        assert all(r.passes >= 1 for r in rows)
        row = summary[0]
        assert (row.fm_best, row.variant_best) == (1, 1)
        assert format_gain_mu(row.gain_mu) == "0.00"

    def test_unknown_algorithm_rejected_before_any_task(self, monkeypatch):
        h = parse_hgr(FIVE_CELL_HGR).to_hypergraph()
        ran = []
        monkeypatch.setattr(cli, "_execute", ran.append)
        with pytest.raises(ValueError, match="'FM', expected one of fm, fm_variant"):
            run_experiment([("x", h)], ["FM", "quantum"], [1], FmConfig())
        with pytest.raises(ValueError, match="'quantum'"):
            run_experiment([("x", h)], ["fm", "quantum"], [1], FmConfig(), failures=[])
        assert ran == []

    def test_zero_reference_cut_flagged(self, fixture_files):
        _, quad = fixture_files
        h = load_document(str(quad)).to_hypergraph()
        rows, summary = run_experiment(
            [("quad", h)], ["fm", "fm_variant"], [1], FmConfig(seed=1)
        )
        assert summary[0].fm_best == 0
        assert summary[0].gain_mu is None
        out = io.StringIO()
        write_summary_csv(summary, [1], out)
        assert "undefined" in out.getvalue()

    def test_deterministic_given_seeds(self, fixture_files):
        star, quad = fixture_files
        entries = [(str(star), load_document(str(star)).to_hypergraph()),
                   (str(quad), load_document(str(quad)).to_hypergraph())]
        outputs = []
        for _ in range(2):
            rows, summary = run_experiment(entries, ["fm", "fm_variant"], [1, 2], FmConfig(seed=1))
            body = io.StringIO()
            write_rows_csv(rows, body)
            head = io.StringIO()
            write_summary_csv(summary, [1, 2], head)
            outputs.append((normalize_elapsed(body.getvalue()), head.getvalue()))
        assert outputs[0] == outputs[1]

    def test_parallel_rows_match_serial(self, fixture_files):
        star, quad = fixture_files
        entries = [(str(star), load_document(str(star)).to_hypergraph()),
                   (str(quad), load_document(str(quad)).to_hypergraph())]
        serial, _ = run_experiment(entries, ["fm", "fm_variant"], [1, 2], FmConfig(seed=1))
        parallel, _ = run_experiment(entries, ["fm", "fm_variant"], [1, 2], FmConfig(seed=1), jobs=2)
        strip = lambda rows: [
            (r.label, r.algorithm, r.seed, r.initial_cut, r.optimal_cut, r.passes) for r in rows
        ]
        assert strip(serial) == strip(parallel)

    def test_rows_equal_direct_runs_under_a_non_default_config(self):
        # every FmConfig field but the seed must reach each task
        h = clustered_hypergraph(random.Random(6), 121, 150)
        cfg = FmConfig(tie_policy="fifo", max_passes=2)
        rows, _ = run_experiment([("c121", h)], ["fm", "fm_variant"], [1, 2, 3], cfg)
        key = lambda r: (r.label, r.algorithm, r.seed, r.initial_cut, r.optimal_cut, r.passes, r.final_side)

        def direct(**knobs):
            return [
                key(runner(h, FmConfig(seed=seed, **knobs), label="c121"))
                for runner in (fm_run, variant_run)
                for seed in (1, 2, 3)
            ]

        assert [key(r) for r in rows] == direct(tie_policy="fifo", max_passes=2)
        # both knobs bind on this instance, so a dropped field would show
        assert [key(r) for r in rows] != direct(max_passes=2)
        assert [key(r) for r in rows] != direct(tie_policy="fifo")

    def test_failures_list_keeps_the_other_rows(self, monkeypatch):
        h = parse_hgr(FIVE_CELL_HGR).to_hypergraph()
        full, _ = run_experiment([("star", h)], ["fm", "fm_variant"], [1, 2], FmConfig())
        fail_one_task(monkeypatch, "star", "fm_variant", 1)
        with pytest.raises(RuntimeError, match="injected"):
            run_experiment([("star", h)], ["fm", "fm_variant"], [1, 2], FmConfig())
        failures = []
        rows, (best,) = run_experiment([("star", h)], ["fm", "fm_variant"], [1, 2], FmConfig(), failures=failures)
        assert failures == [TaskFailure("star", "fm_variant", 1, "RuntimeError: injected")]
        key = lambda r: (r.algorithm, r.seed, r.initial_cut, r.optimal_cut, r.passes)
        assert [key(r) for r in rows] == [key(r) for r in full if (r.algorithm, r.seed) != ("fm_variant", 1)]
        assert best.variant_best == next(r.optimal_cut for r in full if (r.algorithm, r.seed) == ("fm_variant", 2))

    def test_summary_recomputable_from_rows(self, fixture_files):
        star, _ = fixture_files
        h = load_document(str(star)).to_hypergraph()
        rows, summary = run_experiment([("star", h)], ["fm", "fm_variant"], [1, 2, 3], FmConfig())
        fm_best = min(r.optimal_cut for r in rows if r.algorithm == "fm")
        var_best = min(r.optimal_cut for r in rows if r.algorithm == "fm_variant")
        assert summary[0].fm_best == fm_best
        assert summary[0].variant_best == var_best
        assert format_gain_mu(summary[0].gain_mu) == format_gain_mu(gain_mu(fm_best, var_best))


class TestLoadDocument:
    def test_auto_detects_hgr(self, fixture_files):
        star, _ = fixture_files
        assert load_document(str(star)).cell_count == 5

    def test_auto_detects_ibm(self, tmp_path):
        netd = tmp_path / "tiny.netD"
        netd.write_text("0\n2\n1\n2\n0\na0 s O\na1 l I\n")
        doc = load_document(str(netd))
        assert doc.nets == [(0, 1)]

    def test_auto_detects_plain_ibm_net(self, tmp_path):
        net = tmp_path / "tiny.net"
        net.write_text(PLAIN_NET)
        doc = load_document(str(net))
        assert doc.nets == [(0, 1), (2, 0)]
        assert doc.cell_names == ["a0", "a1", "a2"]

    def test_format_names_the_plain_ibm_dialect(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text(PLAIN_NET)
        assert load_document(str(path), "net").nets == [(0, 1), (2, 0)]
        # the netD dialect wants a direction token on every pin line
        with pytest.raises(NetlistFormatError):
            load_document(str(path), "netd")

    def test_unknown_extension_rejected(self, tmp_path):
        weird = tmp_path / "foo.bar"
        weird.write_text("x")
        with pytest.raises(NetlistFormatError, match="infer"):
            load_document(str(weird))


class TestCliMain:
    def test_run_writes_csv_and_summary(self, fixture_files, tmp_path, capsys):
        star, quad = fixture_files
        csv_path = tmp_path / "rows.csv"
        summary_path = tmp_path / "summary.csv"
        code = main([
            "run", "--input", str(star), str(quad),
            "--seeds", "1,2", "--csv", str(csv_path), "--summary", str(summary_path),
        ])
        assert code == 0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(ROW_FIELDS)
        assert len(rows) == 1 + 2 * 2 * 2
        with open(summary_path) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(SUMMARY_FIELDS)
        assert len(lines) == 4

    @pytest.mark.parametrize("flag", ["--csv", "--summary"])
    @pytest.mark.parametrize("where, reason", [("missing/out.csv", "No such file or directory"), (".", "Is a directory")])
    def test_unwritable_output_exits_two_before_any_task(
        self, fixture_files, tmp_path, capsys, monkeypatch, flag, where, reason
    ):
        star, _ = fixture_files
        bad = str(tmp_path / where)
        other = tmp_path / "other.csv"
        ran = []
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: ran.append(a))
        argv = ["run", "--input", str(star), "--seeds", "1", flag, bad]
        argv += ["--summary" if flag == "--csv" else "--csv", str(other)]
        assert main(argv) == 2
        assert ran == []
        assert capsys.readouterr().err == f"error: {bad}: {reason}\n"

    @pytest.mark.parametrize("alias", ["same", "dotdot", "symlink", "hardlink"])
    def test_csv_and_summary_naming_one_file_exit_two_before_any_task(
        self, fixture_files, tmp_path, capsys, monkeypatch, alias
    ):
        star, _ = fixture_files
        out = tmp_path / "out.csv"
        (tmp_path / "sub").mkdir()
        other = {"same": out, "dotdot": tmp_path / "sub" / ".." / "out.csv", "symlink": tmp_path / "link.csv"}
        if alias == "symlink":
            other["symlink"].symlink_to(out)  # out does not exist yet
        if alias == "hardlink":
            out.write_text("kept\n")
            other["hardlink"] = tmp_path / "hard.csv"
            os.link(out, other["hardlink"])
        ran = []
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: ran.append(a))
        argv = ["run", "--input", str(star), "--seeds", "1", "--csv", str(out), "--summary", str(other[alias])]
        assert main(argv) == 2
        assert ran == []
        assert capsys.readouterr().err == f"error: --csv and --summary name the same file: {other[alias]}\n"
        if alias == "hardlink":
            assert out.read_text() == "kept\n"
        else:
            assert not out.exists()

    def test_run_unreadable_file_skipped_with_error(self, fixture_files, tmp_path, capsys):
        star, _ = fixture_files
        code = main([
            "run", "--input", str(star), str(tmp_path / "missing.hgr"),
            "--seeds", "1", "--csv", str(tmp_path / "out.csv"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "missing.hgr" in captured.err
        with open(tmp_path / "out.csv") as fh:
            assert len(fh.read().splitlines()) == 1 + 2  # star still ran

    def test_run_nothing_to_do(self, tmp_path, capsys):
        code = main([
            "run", "--input", str(tmp_path / "nope.hgr"),
            "--csv", str(tmp_path / "out.csv"),
        ])
        assert code == 1
        assert "error: nothing to do, no readable inputs" in capsys.readouterr().err
        with open(tmp_path / "out.csv") as fh:
            assert fh.read().splitlines() == [",".join(ROW_FIELDS)]

    def test_verify_nothing_to_do(self, tmp_path, capsys):
        code = main(["verify", "--input", str(tmp_path / "nope.hgr"), str(tmp_path / "gone.hgr")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: nothing to do, no readable inputs" in captured.err
        assert captured.out == ""

    def test_bad_arguments_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", "x.hgr", "--algo", "quantum"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("flag", [("--seeds", "0"), ("--seeds", "-3"), ("--max-passes", "0")])
    def test_nonpositive_counts_exit_two(self, fixture_files, tmp_path, capsys, command, flag):
        star, _ = fixture_files
        out = tmp_path / "rows.csv"
        argv = [command, "--input", str(star), *flag]
        if command == "run":
            argv += ["--csv", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag[0]}: " in err and "at least 1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_repeated_seed_exits_two(self, fixture_files, tmp_path, capsys, command):
        # a repeated seed would run the same task twice and write duplicate rows
        star, _ = fixture_files
        out = tmp_path / "rows.csv"
        argv = [command, "--input", str(star), "--seeds", "3,1,2,1,3"]
        if command == "run":
            argv += ["--csv", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "argument --seeds: seed 1 is listed more than once" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, message",
        [
            (("--seeds", ","), "argument --seeds: no seed in the list ','"),
            (("--seeds", "1,x"), "argument --seeds: seed 'x' is not an integer"),
            (("--seeds", "x"), "argument --seeds: seed count 'x' is not an integer"),
            (("--max-passes", "x"), "argument --max-passes: value 'x' is not an integer"),
            (("--jobs", "1.5"), "argument --jobs: value '1.5' is not an integer"),
        ],
    )
    def test_non_integer_argument_named(self, fixture_files, tmp_path, capsys, flag, message):
        star, _ = fixture_files
        out = tmp_path / "rows.csv"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", str(star), *flag, "--csv", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_jobs_exit_two(self, fixture_files, tmp_path, capsys, value):
        star, _ = fixture_files
        out = tmp_path / "rows.csv"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", str(star), "--jobs", value, "--csv", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --jobs: " in err and "at least 1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["two", "1.5", "0", "-3"])
    def test_bad_jobs_environment_exit_two(self, fixture_files, tmp_path, capsys, monkeypatch, value):
        star, _ = fixture_files
        out = tmp_path / "rows.csv"
        monkeypatch.setenv("PARTITION_JOBS", value)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", str(star), "--csv", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "PARTITION_JOBS" in err and repr(value) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_jobs_flag_overrides_environment(self, fixture_files, tmp_path, monkeypatch):
        star, _ = fixture_files
        out = tmp_path / "rows.csv"
        monkeypatch.setenv("PARTITION_JOBS", "two")
        assert main(["run", "--input", str(star), "--seeds", "1", "--jobs", "1", "--csv", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2

    def test_parallel_csvs_match_serial_bytes(self, fixture_files, tmp_path):
        star, quad = fixture_files
        outputs = []
        for jobs in ("1", "2"):
            rows, summary = tmp_path / f"rows{jobs}.csv", tmp_path / f"summary{jobs}.csv"
            code = main([
                "run", "--input", str(star), str(quad), "--algo", "both", "--seeds", "3",
                "--jobs", jobs, "--csv", str(rows), "--summary", str(summary),
            ])
            assert code == 0
            outputs.append((normalize_elapsed(rows.read_text()), summary.read_bytes()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) == 1 + 2 * 2 * 3

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="pool workers must inherit the patched _execute"
    )
    def test_failed_task_keeps_the_other_rows_serial_and_parallel(self, fixture_files, tmp_path, capsys, monkeypatch):
        star, quad = fixture_files
        argv = ["run", "--input", str(star), str(quad), "--algo", "both", "--seeds", "3"]
        full = tmp_path / "full.csv"
        assert main(argv + ["--csv", str(full)]) == 0
        fail_one_task(monkeypatch, str(quad), "fm", 2)
        outputs = []
        for jobs in ("1", "2"):
            rows, summary = tmp_path / f"rows{jobs}.csv", tmp_path / f"summary{jobs}.csv"
            capsys.readouterr()
            code = main(argv + ["--jobs", jobs, "--csv", str(rows), "--summary", str(summary)])
            assert code == 1
            assert capsys.readouterr().err == f"error: {quad} fm seed 2: RuntimeError: injected\n"
            outputs.append((normalize_elapsed(rows.read_text()), summary.read_bytes()))
        assert outputs[0] == outputs[1]
        kept = [ln for ln in normalize_elapsed(full.read_text()).splitlines() if not ln.startswith(f"{quad},fm,2,")]
        assert outputs[0][0].splitlines() == kept
        assert len(kept) == 1 + 2 * 2 * 3 - 1

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="pool workers must inherit the patched _execute"
    )
    def test_dead_worker_keeps_the_finished_rows(self, fixture_files, tmp_path, capsys, monkeypatch):
        star, quad = fixture_files
        argv = ["run", "--input", str(star), str(quad), "--algo", "both", "--seeds", "3"]
        full = tmp_path / "full.csv"
        assert main(argv + ["--csv", str(full)]) == 0
        real = cli._execute

        def execute(task):
            # the last task kills its worker once the other tasks, each a few
            # milliseconds long, have returned their rows
            if task[:2] == (str(quad), "fm_variant") and task[3].seed == 3:
                time.sleep(2)
                os._exit(3)
            return real(task)

        monkeypatch.setattr(cli, "_execute", execute)
        rows, summary = tmp_path / "rows.csv", tmp_path / "summary.csv"
        capsys.readouterr()
        assert main(argv + ["--jobs", "2", "--csv", str(rows), "--summary", str(summary)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {quad} fm_variant seed 3: BrokenProcessPool: ")
        assert err.count("\n") == 1
        kept = [ln for ln in full.read_text().splitlines() if not ln.startswith(f"{quad},fm_variant,3,")]
        assert normalize_elapsed(rows.read_text()).splitlines() == [normalize_elapsed(ln) for ln in kept]
        assert len(kept) == 1 + 2 * 2 * 3 - 1
        assert summary.read_text().splitlines()[2:] == [f"{star},1,1,0.00", f"{quad},0,0,undefined"]

    def test_verify_reports_a_failed_task(self, fixture_files, capsys, monkeypatch):
        star, quad = fixture_files
        fail_one_task(monkeypatch, str(star), "fm", 1)
        code = main(["verify", "--input", str(star), str(quad), "--seeds", "1,2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {star} fm seed 1: RuntimeError: injected\n"
        assert captured.out.splitlines() == [f"{quad}: fm=0 variant=0 oracle=0 match=yes"]

    def test_tie_policy_changes_variant_rows(self, tmp_path):
        h = clustered_hypergraph(random.Random(5), 200, 260)
        path = tmp_path / "clustered.hgr"
        path.write_text(
            f"{h.net_count} {h.cell_count}\n" + "".join(" ".join(str(c + 1) for c in net) + "\n" for net in h.nets)
        )
        rows = {}
        for tie in ("lifo", "fifo"):
            out = tmp_path / f"{tie}.csv"
            code = main([
                "run", "--input", str(path), "--algo", "fm_variant", "--tie", tie,
                "--seeds", "1,2,3", "--csv", str(out),
            ])
            assert code == 0
            rows[tie] = normalize_elapsed(out.read_text())
        assert rows["lifo"] != rows["fifo"]

    def test_seed_list_and_count_forms(self, fixture_files, tmp_path):
        star, _ = fixture_files
        out = tmp_path / "rows.csv"
        main(["run", "--input", str(star), "--algo", "fm", "--seeds", "5,9", "--csv", str(out)])
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["seed"]) for r in rows] == [5, 9]
        main(["run", "--input", str(star), "--algo", "fm", "--seeds", "3", "--csv", str(out)])
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["seed"]) for r in rows] == [1, 2, 3]

    def test_verify_reports_matches(self, fixture_files, capsys):
        star, quad = fixture_files
        code = main(["verify", "--input", str(star), str(quad), "--seeds", "1,2,3"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert re.search(r"star\.hgr: fm=1 variant=1 oracle=1 match=yes", lines[0])
        assert re.search(r"quad\.hgr: fm=0 variant=0 oracle=0 match=yes", lines[1])

    def test_verify_rejects_oversized_instance(self, tmp_path, capsys):
        big = tmp_path / "big.hgr"
        big.write_text("0 30\n")
        code = main(["verify", "--input", str(big)])
        captured = capsys.readouterr()
        assert code == 1
        assert "too large" in captured.err

    def test_stats(self, fixture_files, capsys):
        star, _ = fixture_files
        code = main(["stats", "--input", str(star)])
        captured = capsys.readouterr()
        assert code == 0
        assert "cells=5 nets=3 pins=7 max_degree=3" in captured.out

    @pytest.mark.parametrize("name, extra", [("tiny.net", []), ("tiny.txt", ["--format", "net"])])
    def test_stats_on_plain_ibm_net(self, tmp_path, capsys, name, extra):
        path = tmp_path / name
        path.write_text(PLAIN_NET)
        assert main(["stats", "--input", str(path), *extra]) == 0
        assert "cells=3 nets=2 pins=4 max_degree=2" in capsys.readouterr().out
