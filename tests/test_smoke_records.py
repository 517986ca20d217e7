"""The benchmark smoke run's checks (`smoke_records.py`) on synthetic runs."""
import json

import pytest

import smoke_records
from smoke_records import BUSY, refusal


def record(workload, idle=None):
    """A traced record of `workload` whose every required span made a call
    but `idle`."""
    spans = {span: {"calls": 0 if span == idle else 3} for span in BUSY[workload]}
    return {"workload": workload, "missing_spans": [], "spans": spans}


def good():
    return {f"perfbench/out/{w}-trace1.json": record(w) for w in BUSY}


def test_a_good_run_passes():
    assert refusal({"correct": True}, good()) is None


@pytest.mark.parametrize("correct", [False, None, "true", 1])
def test_an_incorrect_run_is_refused(correct):
    last = {} if correct is None else {"correct": correct}
    assert refusal(last, good()).startswith("perfbench reported correct=")


def test_no_records_are_refused():
    assert refusal({"correct": True}, {}) == "perfbench wrote no traced records"


@pytest.mark.parametrize("missing", [["fpl.pool_extend"], None])
def test_missing_spans_are_refused(missing):
    records = good()
    path = "perfbench/out/loop-coin-trace1.json"
    records[path]["missing_spans"] = missing
    if missing is None:
        del records[path]["missing_spans"]
    assert refusal({"correct": True}, records) == f"{path}: missing_spans = {missing!r}"


@pytest.mark.parametrize("workload, span", [(w, s) for w, spans in BUSY.items() for s in spans])
@pytest.mark.parametrize("how", ["no-calls", "no-span"])
def test_an_idle_required_span_is_refused(workload, span, how):
    records = good()
    path = f"perfbench/out/{workload}-trace1.json"
    records[path] = record(workload, idle=span)
    if how == "no-span":
        del records[path]["spans"][span]
    assert refusal({"correct": True}, records) == f"{path}: {span} made no call"


@pytest.mark.parametrize("workload", list(BUSY))
def test_a_missing_workload_is_refused(workload):
    records = {path: r for path, r in good().items() if r["workload"] != workload}
    assert refusal({"correct": True}, records) == f"no traced record for {[workload]}"


def test_main_reads_the_output_and_records(tmp_path, capsys):
    output = tmp_path / "smoke.txt"
    output.write_text("a progress line\n" + json.dumps({"correct": True}) + "\n")
    for path, r in good().items():
        (tmp_path / path.rsplit("/", 1)[1]).write_text(json.dumps(r))
    pattern = str(tmp_path / "*-trace1.json")
    assert smoke_records.main([str(output), pattern]) == 0
    assert capsys.readouterr().out.startswith(f"correct; {len(BUSY)} traced records")
    (tmp_path / "oracle-exact-trace1.json").unlink()
    assert smoke_records.main([str(output), pattern]) == 1
    assert capsys.readouterr().err == "no traced record for ['oracle-exact']\n"
