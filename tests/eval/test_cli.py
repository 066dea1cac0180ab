"""Tests for the ``python -m repro`` command line interface."""

import pytest

from repro.cli import _parse_param, main
from repro.verification.common import VerificationResult
from repro.verification.registry import register_checker, unregister_checker


class TestParamParsing:
    def test_scalars(self):
        assert _parse_param("widths=2") == ("widths", 2)
        assert _parse_param("scale=0.5") == ("scale", 0.5)
        assert _parse_param("names=s344") == ("names", "s344")
        assert _parse_param("names=none") == ("names", None)

    def test_booleans(self):
        # "false" must parse as False, not as a truthy string
        assert _parse_param("no_skip=false") == ("no_skip", False)
        assert _parse_param("no_skip=true") == ("no_skip", True)

    def test_lists(self):
        assert _parse_param("widths=1,2,4") == ("widths", [1, 2, 4])
        assert _parse_param("names=s344,s382") == ("names", ["s344", "s382"])


class TestListing:
    def test_list_backends(self, capsys):
        assert main(["list-backends"]) == 0
        out = capsys.readouterr().out
        for name in ("smv", "sis", "eijk", "eijk+", "match", "hash", "taut-rw"):
            assert name in out
        assert "synthesis" in out  # hash's kind is shown

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("figure2", "iwls", "counters", "multiplier", "random_seq"):
            assert name in out
        assert "widths" in out  # parameters are shown


class TestRun:
    def test_run_scenario_with_params_and_jobs(self, capsys):
        code = main(["run", "--scenario", "multiplier", "--param", "widths=3",
                     "--methods", "match,hash", "--jobs", "2", "--budget", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Scenario 'multiplier'" in out
        assert "fracmul_3bit" in out
        assert "MATCH" in out and "HASH" in out
        assert "inferences" in out  # kernel steps column from hash stats

    def test_run_table1_in_process(self, capsys):
        code = main(["run", "--table", "1", "--param", "widths=1,2",
                     "--budget", "20", "--no-isolate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table I" in out
        assert "figure2 n=2" in out

    def test_run_table1_scalar_width(self, capsys):
        # a single-valued widths param parses as a bare int and must still work
        code = main(["run", "--table", "1", "--param", "widths=1",
                     "--methods", "hash", "--budget", "10", "--no-isolate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "figure2 n=1" in out

    def test_cut_point_backends_do_not_refute_a_retiming(self, capsys):
        # a retiming's registers do not correspond, so sat, fraig and taut
        # are inconclusive on the pairs that smv proves equivalent
        code = main(["run", "--scenario", "figure2", "--param", "widths=2,3",
                     "--methods", "sat,fraig,taut,smv", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split() for line in out.splitlines()
                if line.startswith("figure2 n=")]
        assert len(rows) == 2
        for row in rows:
            assert row[-4:-1] == ["?", "?", "?"], row
            float(row[-1])  # smv decides the pair: its time is shown
        assert "!=" not in out

    def test_table2_names_match_exactly_not_by_substring(self, capsys):
        # a scalar names param must select by exact benchmark name: the
        # non-existent 's344extra' selects nothing (not s344 by substring)
        code = main(["run", "--table", "2", "--param", "names=s344extra",
                     "--param", "scale=0.05", "--methods", "match",
                     "--no-isolate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "s344" not in out

    def test_run_table2_restricted(self, capsys):
        code = main(["run", "--table", "2", "--param", "scale=0.05",
                     "--param", "names=s344", "--methods", "match,hash",
                     "--jobs", "2", "--budget", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table II" in out
        assert "s344" in out

    def test_table2_is_the_iwls_scenario_under_its_title(self, capsys,
                                                         tmp_path):
        # one cache, so the second run's seconds are the first run's
        shared = ["--param", "scale=0.05", "--param", "names=s344,s382",
                  "--no-isolate", "--cache-dir", str(tmp_path)]
        assert main(["run", "--table", "2", *shared]) == 0
        table = capsys.readouterr().out.splitlines()
        assert main(["run", "--scenario", "iwls", *shared]) == 0
        scenario = capsys.readouterr().out.splitlines()
        assert table[0].startswith("Table II")
        assert scenario[0] == "Scenario 'iwls'"
        assert table[2:] == scenario[2:]


class TestTable1SkipPolicy:
    """A verifier that timed out on two widths in a row is skipped after."""

    @pytest.fixture()
    def stub_widths(self):
        widths = []

        def always_times_out(original, retimed, time_budget=None):
            widths.append(original.width(original.outputs[0]))
            return VerificationResult(method="stub-slow", status="timeout",
                                      seconds=0.0, detail="stubbed")

        register_checker("stub-slow", always_times_out, replace=True)
        yield widths
        unregister_checker("stub-slow")

    def _run(self, *extra):
        return main(["run", "--table", "1", "--param", "widths=1,2,3,4",
                     "--methods", "stub-slow,hash", "--budget", "20",
                     "--no-isolate", "--no-cache", "--stream", *extra])

    def test_verifier_skipped_after_two_timeouts(self, capsys, stub_widths):
        assert self._run() == 0
        out = capsys.readouterr().out
        assert stub_widths == [1, 2]
        streamed = [line for line in out.splitlines()
                    if line.startswith("[cell ")]
        assert len(streamed) == 8  # skipped cells stream too
        assert sum("/ hash: equivalent" in line for line in streamed) == 4
        assert sum("/ stub-slow: timeout" in line for line in streamed) == 4

    def test_no_skip_runs_every_cell(self, capsys, stub_widths):
        assert self._run("--param", "no_skip=1") == 0
        capsys.readouterr()
        assert stub_widths == [1, 2, 3, 4]


class TestCacheCommand:
    def test_stats_and_clear_see_the_whole_store(self, capsys, tmp_path):
        directory = str(tmp_path / "cache")
        assert main(["run", "--scenario", "multiplier", "--param", "widths=3",
                     "--methods", "match,hash", "--budget", "30",
                     "--no-isolate", "--cache-dir", directory]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", directory]) == 0
        assert "entries   : 2 (" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", directory]) == 0
        assert "removed 2 cached result(s)" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", directory]) == 0
        assert "entries   : 0 (0 bytes)" in capsys.readouterr().out

    def test_cache_command_takes_no_socket(self, capsys):
        # a daemon keeps no results outside the directory
        with pytest.raises(SystemExit):
            main(["cache", "--help"])
        assert "--socket" not in capsys.readouterr().out


class TestErrors:
    def test_unknown_method_exits_2(self, capsys):
        code = main(["run", "--scenario", "figure2", "--methods", "nope"])
        out = capsys.readouterr().out
        assert code == 2
        assert "unknown verification backend" in out

    @pytest.mark.parametrize("roster", ["race", "race:sis,sat",
                                        "race:bdd,sat,fraig", "hash,race"])
    def test_race_roster_is_an_unknown_backend(self, capsys, roster):
        code = main(["run", "--table", "1", "--param", "widths=4",
                     "--methods", roster])
        out = capsys.readouterr().out
        assert code == 2
        assert "unknown verification backend" in out

    def test_unknown_scenario_exits_2(self, capsys):
        code = main(["run", "--scenario", "nope"])
        out = capsys.readouterr().out
        assert code == 2
        assert "unknown scenario" in out

    def test_unknown_param_exits_2(self, capsys):
        code = main(["run", "--scenario", "figure2", "--param", "depth=3"])
        out = capsys.readouterr().out
        assert code == 2
        assert "does not accept" in out

    def test_unknown_table_param_rejected_before_measuring(self, capsys, monkeypatch):
        # leftover params must be rejected *before* the table is run, so a
        # typo cannot discard minutes of measurement
        from repro.eval import table1

        def never_called(*a, **k):  # pragma: no cover - guards the test
            raise AssertionError("run_table1 must not run with bogus params")

        monkeypatch.setattr(table1, "run_table1", never_called)
        code = main(["run", "--table", "1", "--param", "widths=1",
                     "--param", "bogus=1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "does not accept" in out

    def test_table2_takes_no_skip_policy(self, capsys):
        code = main(["run", "--table", "2", "--param", "no_skip=1",
                     "--no-cache"])
        assert code == 2
        assert "does not accept ['no_skip']" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "fuzz"])
    def test_via_daemon_excludes_no_isolate(self, capsys, command):
        assert main([command, "--via-daemon", "--no-isolate"]) == 2
        assert "mutually exclusive" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "fuzz"])
    def test_via_daemon_without_a_daemon_exits_2(self, capsys, tmp_path,
                                                 command):
        code = main([command, "--via-daemon",
                     "--socket", str(tmp_path / "absent.sock")])
        assert code == 2
        assert "no daemon listening" in capsys.readouterr().out

    def test_malformed_param_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--param", "widths"])
