"""The result sweep against its pinned output, ``tests/result_sweep.txt``.

Exact results and emitted bytes stay identical from one change to the
next.  The lines of the float copies (``*-float.json``) keep their exit
code and command, but not their hashes: float angles come from the
host's LAPACK, whose last bits differ between builds.
"""

from pathlib import Path

import result_sweep

PINNED = Path(__file__).with_name("result_sweep.txt")


def comparable(lines) -> list:
    """The lines with the two hashes of every float-copy line dropped."""
    return [line.split(" ", 2)[2] if "-float.json" in line else line for line in lines]


def test_sweep_matches_pinned_output():
    pinned = PINNED.read_text().splitlines()
    assert sum("-float.json" in line for line in pinned) == 9
    assert comparable(result_sweep.sweep()) == comparable(pinned)
