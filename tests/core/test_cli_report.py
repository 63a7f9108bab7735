"""Tests for the CLI and the report-formatting helpers."""

import pytest

from repro.cli import build_parser, main
from repro.core.paper_data import PaperValue
from repro.core.report import (
    format_comparison_row,
    format_table,
    matrix_to_text,
    ratio,
    within_factor,
)


class TestReportHelpers:
    def test_comparison_row_alignment(self):
        row = format_comparison_row("label", PaperValue(1.5), 1.4)
        assert "label" in row and "1.500" in row and "1.400" in row

    def test_provenance_marks(self):
        exact = format_comparison_row("x", PaperValue(1.0, "exact"), 1.0)
        derived = format_comparison_row("x", PaperValue(1.0, "derived"), 1.0)
        reconstructed = format_comparison_row("x", PaperValue(1.0, "reconstructed"), 1.0)
        assert "~" in derived and "?" in reconstructed
        assert "~" not in exact and "?" not in exact

    def test_missing_paper_value(self):
        row = format_comparison_row("x", None, 2.0)
        assert "--" in row

    def test_format_table_has_header_and_rows(self):
        text = format_table("Title", [("a", PaperValue(1.0), 2.0), ("b", None, 3.0)])
        assert text.startswith("Title")
        assert "paper" in text and "measured" in text
        assert text.count("\n") >= 4

    def test_matrix_to_text(self):
        text = matrix_to_text({"r1": {"c1": 1.0, "c2": 2.0}}, ["c1", "c2"], "M")
        assert "r1" in text and "1.000" in text and "2.000" in text

    def test_ratio_and_within_factor(self):
        assert ratio(2.0, PaperValue(1.0)) == 2.0
        assert within_factor(2.0, PaperValue(1.0), 2.0)
        assert not within_factor(2.1, PaperValue(1.0), 2.0)
        assert within_factor(0.5, PaperValue(1.0), 2.0)
        assert not within_factor(0.4, PaperValue(1.0), 2.0)

    def test_within_factor_zero_paper(self):
        assert within_factor(0.0, PaperValue(0.0), 2.0)
        assert not within_factor(0.1, PaperValue(0.0), 2.0)

    def test_assertable_flag(self):
        assert PaperValue(1.0, "exact").assertable
        assert PaperValue(1.0, "derived").assertable
        assert not PaperValue(1.0, "reconstructed").assertable


class TestPaperData:
    def test_table1_sums_to_roughly_100(self):
        from repro.core.paper_data import TABLE1_GROUP_FREQUENCY

        total = sum(v.value for v in TABLE1_GROUP_FREQUENCY.values())
        assert total == pytest.approx(99.93, abs=0.2)

    def test_table8_column_totals_sum_to_cpi(self):
        from repro.core.paper_data import TABLE8_COLUMN_TOTALS, TABLE8_TOTAL_CPI

        total = sum(v.value for v in TABLE8_COLUMN_TOTALS.values())
        assert total == pytest.approx(TABLE8_TOTAL_CPI.value, abs=0.001)

    def test_table2_total_consistent(self):
        from repro.core.paper_data import TABLE2_PC_CHANGING, TABLE2_TOTAL

        class_sum = sum(
            row.percent_of_instructions.value for row in TABLE2_PC_CHANGING.values()
        )
        assert class_sum == pytest.approx(TABLE2_TOTAL.percent_of_instructions.value, abs=0.5)

    def test_table6_decomposition_consistent(self):
        from repro.core.paper_data import TABLE6_SIZE

        estimate = (
            TABLE6_SIZE["opcode_bytes"].value
            + TABLE6_SIZE["specifiers_per_instruction"].value
            * TABLE6_SIZE["specifier_size"].value
            + TABLE6_SIZE["displacements_per_instruction"].value
            * TABLE6_SIZE["displacement_size"].value
        )
        assert estimate == pytest.approx(TABLE6_SIZE["total_bytes"].value, abs=0.1)

    def test_sec42_splits_sum(self):
        from repro.core.paper_data import SEC42_CACHE_TB

        assert SEC42_CACHE_TB["cache_read_misses_per_instruction"].value == pytest.approx(
            SEC42_CACHE_TB["cache_read_misses_istream"].value
            + SEC42_CACHE_TB["cache_read_misses_dstream"].value
        )
        assert SEC42_CACHE_TB["tb_misses_per_instruction"].value == pytest.approx(
            SEC42_CACHE_TB["tb_misses_dstream"].value
            + SEC42_CACHE_TB["tb_misses_istream"].value
        )


class TestCLI:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "timesharing_light" in out and "40 users" in out

    def test_diagram(self, capsys):
        assert main(["diagram"]) == 0
        out = capsys.readouterr().out
        assert "EBOX" in out and "SBI" in out

    def test_run_small_workload(self, capsys):
        assert main(["run", "educational", "--instructions", "1200", "--warmup", "400"]) == 0
        out = capsys.readouterr().out
        assert "Table 8" in out and "CPI" in out

    def test_sweep_dedupes_repeated_values_through_the_scheduler(
        self, capsys, monkeypatch
    ):
        # `sweep ... 4 4` names one configuration twice: the Scheduler
        # executes it once and the attached copy still prints its row.
        import repro.core.executor as executor_module

        executed = []
        real = executor_module.execute_spec

        def spy(spec, *args, **kwargs):
            executed.append(spec.name)
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(executor_module, "execute_spec", spy)
        argv = ["sweep", "educational", "cache_kb", "4", "4",
                "--instructions", "400", "--warmup", "100"]
        assert main(argv) == 0
        assert executed == ["educational", "educational[cache=4KB]"]
        rows = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("educational")
        ]
        assert rows == [
            "educational", "educational[cache=4KB]", "educational[cache=4KB]"
        ]

    def test_composite_logs_pool_workers_cache_traffic(self, capsys, tmp_path):
        # With --jobs 2 every sharded spec's cache traffic happens in a
        # pool worker; the log line must report it from the ledger.
        argv = ["composite", "--shards", "2", "--jobs", "2",
                "--instructions", "400", "--warmup", "100",
                "--cache-dir", str(tmp_path / "cache")]

        def cache_line():
            assert main(argv) == 0
            (line,) = [
                line for line in capsys.readouterr().err.splitlines()
                if "run cache" in line
            ]
            return dict(
                field.split("=", 1) for field in line.split() if "=" in field
            )

        cold = cache_line()
        assert int(cold["misses"]) > 0 and int(cold["puts"]) > 0
        warm = cache_line()
        assert warm["misses"] == "0" and int(warm["hits"]) > 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_requires_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])
