"""Every fast path against its slow oracle: one test per row of
``oracles.ORACLES``."""

import random
from collections import Counter
from itertools import islice

import pytest

from oracles import ORACLES


@pytest.mark.parametrize("row", ORACLES, ids=[row.name for row in ORACLES])
def test_fast_path_agrees_with_its_oracle(row):
    seen, cases = Counter(), 0
    for case in islice(row.cases(random.Random(row.seed)), row.count):
        seen.update(row.compare(row, case))
        cases += 1
    assert cases == row.count
    short = {name: (seen[name], least) for name, least in row.floors.items() if seen[name] < least}
    assert not short, (short, seen)
