"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.cli import build_parser, main

_ECO = ["--publishers", "80", "--eco-seed", "99"]


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    http_path = tmp / "trace.tsv"
    tls_path = tmp / "tls.tsv"
    code = main(
        ["trace", *_ECO, "--preset", "rbn2", "--scale", "0.0005",
         "--out", str(http_path), "--tls-out", str(tls_path)]
    )
    assert code == 0
    return http_path, tls_path


def test_importing_the_cli_loads_no_staticcheck_module():
    """classify and serve processes must not pay for the lint package
    (``repro lint`` imports it on demand)."""
    code = (
        "import sys, repro.cli; "
        "print([m for m in sys.modules if m.startswith('repro.staticcheck')])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve"])
def test_importing_classify_and_serve_loads_no_numpy(module):
    """Only the table commands (ecosystem, usage, crawl, report) import
    ``repro.analysis``; numpy is 0.13 s and 16 MiB every other process
    would pay at start-up."""
    code = (
        f"import sys, {module}; "
        "print([m for m in sys.modules "
        "if m == 'numpy' or m.split('.')[:2] == ['repro', 'analysis']])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("ecosystem", "trace", "classify", "usage", "crawl", "report"):
            args = parser.parse_args(
                [command] + (
                    ["--trace", "x"] if command in ("classify", "report") else []
                ) + (
                    ["--tls", "y"] if command == "usage" else []
                ) + (
                    ["--trace", "x"] if command == "usage" else []
                ) + (
                    ["--out", "z"] if command == "trace" else []
                )
            )
            assert callable(args.func)


class TestEcosystemCommand:
    def test_runs(self, capsys):
        assert main(["ecosystem", *_ECO]) == 0
        out = capsys.readouterr().out
        assert "publishers:  80" in out
        assert "easylist" in out


class TestTraceAndClassify:
    def test_trace_writes_files(self, trace_files):
        http_path, tls_path = trace_files
        head = http_path.read_text().splitlines()
        assert head[0].startswith("#ts")
        assert len(head) > 100
        assert tls_path.read_text().startswith("#ts")

    def test_classify(self, trace_files, capsys, tmp_path):
        http_path, _ = trace_files
        out_path = tmp_path / "classified.tsv"
        code = main(["classify", *_ECO, "--trace", str(http_path), "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ad-related:" in out
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("#ts")
        assert any(line.split("\t")[4] == "1" for line in lines[1:])

    def test_usage(self, trace_files, capsys):
        http_path, tls_path = trace_files
        code = main(
            ["usage", *_ECO, "--trace", str(http_path), "--tls", str(tls_path),
             "--min-requests", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "usage classes" in out
        assert "likely Adblock Plus users" in out

    def test_report(self, trace_files, capsys):
        http_path, _ = trace_files
        assert main(["report", *_ECO, "--trace", str(http_path)]) == 0
        out = capsys.readouterr().out
        assert "Content-Type" in out
        assert "ad share" in out


class TestCrawlCommand:
    def test_crawl(self, capsys):
        assert main(["crawl", *_ECO, "--sites", "15"]) == 0
        out = capsys.readouterr().out
        assert "Vanilla" in out and "AdBP-Pa" in out


@pytest.fixture(scope="module")
def corrupted_trace(trace_files, tmp_path_factory):
    http_path, _ = trace_files
    tmp = tmp_path_factory.mktemp("corrupt")
    damaged = tmp / "damaged.tsv"
    code = main(
        ["corrupt", "--trace", str(http_path), "--out", str(damaged),
         "--rate", "0.1", "--jitter-s", "1.0", "--seed", "7"]
    )
    assert code == 0
    return damaged


class TestDegradedOperation:
    def test_quarantine_completes_with_exit_3(self, corrupted_trace, capsys, tmp_path):
        sidecar = tmp_path / "rejects.tsv"
        code = main(
            ["classify", *_ECO, "--trace", str(corrupted_trace),
             "--on-error", "quarantine", "--quarantine-out", str(sidecar),
             "--reorder-window", "2.0"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "pipeline health" in out
        assert "quarantined" in out

        # No data silently lost: parsed + quarantined == input data lines.
        input_lines = sum(
            1 for line in corrupted_trace.read_text().splitlines()
            if line and not line.startswith("#")
        )
        quarantined = sum(
            1 for line in sidecar.read_text().splitlines()
            if line and not line.startswith("#")
        )
        parsed = int(out.split(" requests classified")[0].rsplit("\n", 1)[-1])
        assert parsed + quarantined == input_lines

    def test_skip_completes_with_exit_3(self, corrupted_trace, capsys):
        code = main(
            ["classify", *_ECO, "--trace", str(corrupted_trace), "--on-error", "skip"]
        )
        assert code == 3
        assert "dropped:" in capsys.readouterr().out

    def test_strict_aborts_citing_line_number(self, corrupted_trace, capsys):
        code = main(["classify", *_ECO, "--trace", str(corrupted_trace)])
        assert code == 1
        err = capsys.readouterr().err
        assert "malformed input at line" in err

    def test_clean_trace_exits_0_with_summary(self, trace_files, capsys):
        http_path, _ = trace_files
        code = main(
            ["classify", *_ECO, "--trace", str(http_path), "--on-error", "quarantine"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dropped:           0" in out

    def test_unset_required_columns_and_escaped_uris(self, trace_files, tmp_path, capsys):
        """``-`` for ts / client / uri used to decode to ``None`` and end
        in an untyped traceback three layers later; a URI's literal
        ``%0A`` used to split its output row in three."""
        http_path, _ = trace_files
        lines = http_path.read_text().splitlines()
        for line_no, column in ((10, 0), (20, 1), (30, 5)):
            tokens = lines[line_no].split("\t")
            tokens[column] = "-"
            lines[line_no] = "\t".join(tokens)
        tokens = lines[40].split("\t")
        tokens[5] = "/q?next=%0Ahttp://x.example/%09y"
        lines[40] = "\t".join(tokens)
        damaged, out_path = tmp_path / "unset.tsv", tmp_path / "out.tsv"
        damaged.write_text("\n".join(lines) + "\n")
        code = main(
            ["classify", *_ECO, "--trace", str(damaged), "--out", str(out_path),
             "--on-error", "skip", "--reorder-window", "2.0"]
        )
        assert code == 3
        assert "read_log/bad-value: 3" in capsys.readouterr().out
        rows = out_path.read_text().splitlines()
        assert len(rows) == len(lines) - 3  # the header, and one row per surviving record
        assert sum("/q?next=%0Ahttp://x.example/%09y" in row for row in rows) == 1

    def test_max_users_flag(self, trace_files, capsys):
        http_path, _ = trace_files
        code = main(
            ["classify", *_ECO, "--trace", str(http_path), "--max-users", "3"]
        )
        assert code == 0
        assert "peak users held:   3" in capsys.readouterr().out


class TestLintCommand:
    FIXTURE = (
        "||ads.example^$bogus-option\n"
        "/(a+)+broken/$script\n"
        "||ok.example^$script\n"
    )

    @pytest.fixture()
    def fixture_path(self, tmp_path):
        path = tmp_path / "list.txt"
        path.write_text(self.FIXTURE)
        return str(path)

    def test_findings_exit_1(self, fixture_path, capsys):
        assert main(["lint", fixture_path]) == 1
        out = capsys.readouterr().out
        assert "FL006 error" in out and "FL007 warning" in out

    def test_fail_on_error_ignores_warnings(self, tmp_path, capsys):
        path = tmp_path / "warn.txt"
        path.write_text("||x.example^$bogus-option\n")
        assert main(["lint", str(path)]) == 0
        assert main(["lint", str(path), "--fail-on", "warning"]) == 1

    def test_clean_list_exits_0(self, tmp_path, capsys):
        path = tmp_path / "clean.txt"
        path.write_text("||ads.example^$script\n")
        assert main(["lint", str(path)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_json_format(self, fixture_path, capsys):
        import json

        main(["lint", fixture_path, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["counts"]["error"] == 1

    def test_baseline_round_trip(self, fixture_path, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", fixture_path, "--write-baseline", baseline]) == 0
        assert main(["lint", fixture_path, "--baseline", baseline,
                     "--fail-on", "warning"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_baseline_hides_old_but_reports_new(self, fixture_path, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", fixture_path, "--write-baseline", baseline]) == 0
        capsys.readouterr()
        # A fresh finding appears after the baseline was accepted: only
        # it may be reported, and it alone fails the gate.
        with open(fixture_path, "a") as stream:
            stream.write("||new.example^$other-bogus\n")
        assert main(["lint", fixture_path, "--baseline", baseline,
                     "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "other-bogus" in out
        assert "ads.example" not in out and "broken" not in out

    def test_no_input_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["lint"])
