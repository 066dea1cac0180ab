"""Tests for streaming cell output (`--stream` / `run_cells(on_result=...)`).

The contract: the callback fires once per cell the moment it completes
(completion order under parallel isolation, submission order serially),
while the returned measurement list — and therefore the final table
render — is byte-identical with and without streaming.
"""

from repro.cli import main
from repro.eval import runner, scenarios
from repro.eval.runner import CellSpec, run_cells


def _specs(n_widths=2):
    workloads = scenarios.build_scenario("strash", widths=list(range(2, 2 + n_widths)))
    return [
        CellSpec(w, m, time_budget=30.0)
        for w in workloads
        for m in ("taut", "sat")
    ]


class TestOnResultCallback:
    def test_serial_callback_order_and_identity(self):
        specs = _specs()
        events = []
        results = run_cells(
            specs, on_result=lambda i, m: events.append((i, m.workload, m.method))
        )
        assert [e[0] for e in events] == list(range(len(specs)))
        assert [(e[1], e[2]) for e in events] == [
            (s.workload.name, s.method) for s in specs
        ]
        plain = run_cells(specs)
        assert [(m.workload, m.method, m.verdict) for m in results] == \
            [(m.workload, m.method, m.verdict) for m in plain]

    def test_parallel_callback_covers_every_cell(self):
        specs = _specs()
        events = []
        results = run_cells(
            specs, jobs=2, isolate=True,
            on_result=lambda i, m: events.append(i),
        )
        assert sorted(events) == list(range(len(specs)))
        assert all(m.verdict == "equivalent" for m in results)

    def test_render_identical_with_and_without_streaming(self):
        workloads = scenarios.build_scenario("strash", widths=2)
        methods = ["taut", "sat", "fraig"]
        rows_plain = runner.run_rows(workloads, methods)
        rows_stream = runner.run_rows(
            workloads, methods, on_result=lambda i, m: None
        )

        def strip_times(rows):
            return [
                [(m, row.cells[m].verdict) for m in methods] for row in rows
            ]

        assert strip_times(rows_plain) == strip_times(rows_stream)


class TestCliStreamFlag:
    def test_stream_lines_precede_identical_table(self, capsys):
        args = ["run", "--scenario", "strash", "--param", "widths=2",
                "--methods", "taut,sat", "--no-isolate"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--stream"]) == 0
        streamed = capsys.readouterr().out
        stream_lines = [l for l in streamed.splitlines() if l.startswith("[cell ")]
        assert len(stream_lines) == 4  # 2 workloads x 2 methods
        assert "strash figure2_2bit / sat" in "\n".join(stream_lines)
        # the final render is byte-identical: drop the stream lines and the
        # wall-clock digits, which vary run to run
        import re

        def table_of(text):
            kept = [l for l in text.splitlines() if not l.startswith("[cell ")]
            return re.sub(r"\d+\.\d\d", "T", "\n".join(kept))

        assert table_of(streamed) == table_of(plain)

    def test_stream_with_jobs(self, capsys):
        args = ["run", "--scenario", "strash", "--param", "widths=2",
                "--methods", "taut,sat", "--jobs", "2", "--stream",
                "--budget", "30"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if l.startswith("[cell ")]) == 4
        assert "Scenario 'strash'" in out


class TestStrashScenario:
    def test_registered_and_equivalent(self):
        scenario = scenarios.get_scenario("strash")
        assert set(scenario.default_methods) == {"taut", "sat", "fraig"}
        workloads = scenarios.build_scenario("strash", widths=3)
        assert len(workloads) == 2  # figure2 + counter
        for w in workloads:
            for method in scenario.default_methods:
                result = runner.run_cell(w, method)
                assert result.verdict == "equivalent", (w.name, method, result.detail)
