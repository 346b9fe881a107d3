import json

from e2e import CliRun, E2EResult, check_cli


def cli_run(returncode=0, **health):
    document = {"records_ok": 0, "records_dropped": 0, "records_quarantined": 0, **health}
    return CliRun(1.0, 1.0, 10.0, returncode, "wrote classification to x\n" + json.dumps(document, indent=2), "boom")


def test_the_health_document_is_found_after_the_clis_prose():
    assert cli_run(records_ok=3).health()["records_ok"] == 3


def test_a_clean_run_books_its_records_and_no_problem():
    result = E2EResult()
    check_cli(cli_run(records_ok=100), "classify", 100, result)
    assert (result.attempted, result.failed, result.problems) == (100, 0, [])


def test_a_nonzero_exit_fails_every_record_of_the_command():
    result = E2EResult()
    check_cli(cli_run(returncode=1), "classify", 100, result)
    assert (result.attempted, result.failed) == (100, 100)
    assert "exit code 1" in result.problems[0]


def test_dropped_and_quarantined_records_are_failures():
    result = E2EResult()
    check_cli(cli_run(records_ok=97, records_dropped=2, records_quarantined=1), "classify", 100, result)
    assert (result.attempted, result.failed) == (100, 3)
    assert len(result.problems) == 1
