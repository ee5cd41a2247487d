"""Each correctness check passes on good output and fires on a
deliberately corrupted predictions file."""

import checks

GOOD = """# hybrid-ids predictions v1
coarse,fine,routed,nn_vote,rf_vote,misuse_vote
normal,-,false,normal,normal,-
dos,neptune,true,dos,dos,dos
normal,normal,true,normal,probe,normal
probe,satan,true,probe,normal,probe
"""
STATS = "records=4 routed=3 trimmed=1 confirmed=2 errors=0"


def _corrupt(row: int, value: str) -> str:
    lines = GOOD.splitlines()
    lines[row + 2] = value
    return "\n".join(lines) + "\n"


def test_good_output_passes_every_check():
    rows = checks.verdict_rows(GOOD)
    assert len(rows) == 4
    assert checks.rows_match(rows, checks.verdict_rows(GOOD)) == []
    assert checks.fine_iff_routed(rows) == []
    assert checks.routing_adds_up(checks.routing_counts(STATS), rows) == []
    assert checks.rejected_count("line 2: bad\nline 9: bad\n", 2) == []
    assert checks.identical("predictions.csv", GOOD.encode(), GOOD.encode()) == []


def test_changed_verdict_differs_from_the_batched_path():
    reference = checks.verdict_rows(GOOD)
    flipped = checks.verdict_rows(_corrupt(1, "normal,neptune,true,dos,dos,normal"))
    assert checks.rows_match(flipped, reference)
    assert checks.rows_match(flipped[:-1], reference)  # a verdict went missing


def test_fine_label_without_routing_fires():
    assert checks.fine_iff_routed(checks.verdict_rows(_corrupt(0, "normal,normal,false,normal,normal,-")))
    assert checks.fine_iff_routed(checks.verdict_rows(_corrupt(1, "dos,-,true,dos,dos,dos")))


def test_routing_counts_that_do_not_add_up_fire():
    rows = checks.verdict_rows(GOOD)
    assert checks.routing_adds_up(checks.routing_counts("routed=3 trimmed=1 confirmed=1"))
    # the stats line says one record was trimmed; the corrupted file has none
    corrupted = checks.verdict_rows(_corrupt(2, "dos,neptune,true,normal,probe,dos"))
    assert checks.routing_adds_up(checks.routing_counts(STATS), corrupted)
    assert checks.routing_adds_up({}, rows)


def test_rejected_count_fires_on_an_accepted_bad_line():
    assert checks.rejected_count("line 2: bad\n", 2)


def test_changed_bytes_between_repeats_fire():
    assert checks.identical("predictions.csv", GOOD.encode(), _corrupt(0, "dos,-,false,dos,dos,-").encode())
    assert checks.identical("predictions.csv", GOOD.encode(), None)


def test_confusion_totals():
    text = "# hybrid-ids confusion v1\ntruth\\pred,normal,dos\nnormal,5,1\ndos,2,7\n"
    assert checks.confusion_totals(text) == (15, 12)
