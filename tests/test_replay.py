"""The replay record (tests/replay.py) of a seeded slice, pinned by digest.

A closed form or allocator change that moves any recorded call, even by one
ulp and even where no CLI pin prints it, changes the digest; run
`python3 tests/replay.py --against FILE` on both trees to list the calls.
"""

import hashlib

import replay

# The first 40 scenarios of each family: 3,960 calls.
SLICE_SHA256 = ("3aaf677b184f6709712d650c70c555b0"
                "547dd0c1f914c9a7e2d5260af99b4f62")


def test_replay_slice_digest_is_pinned():
    record = "".join(f"{line}\n" for line in replay.lines(limit=40))
    assert record.count("\n") == 3960
    assert hashlib.sha256(record.encode()).hexdigest() == SLICE_SHA256


def test_replay_reports_a_moved_call_and_an_absent_one():
    baseline = ["pool 0 f: 0x1.0p+0", "pool 0 g: None", "pool 0 h: None"]
    record = ["pool 0 f: 0x1.0000000000001p+0", "pool 0 g: None"]
    assert replay.moved(record, baseline) == [
        "pool 0 f: 0x1.0p+0 -> 0x1.0000000000001p+0",
        "pool 0 h: None -> (absent)"]
    assert replay.moved(baseline, baseline) == []
