"""Bit-identity of printed enclosures against the benchmark's golden file.

Every corpus program is evaluated at costs 0-4, and lagrangian_action,
whose inner integral runs once per outer range, also at 5 and 6.  Its
printed value is compared with the entry recorded in
`bench/golden/corpus.json`, which this test only reads.
"""
import json
from pathlib import Path

import pytest

from dualpcf.corpus import CORPUS, load_corpus
from dualpcf.machine import Value, eval_at_cost

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden" / "corpus.json"
EXTRA_COSTS = {"lagrangian_action": (5, 6)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CORPUS))
def test_corpus_enclosures_match_golden(golden, name):
    e, _ = load_corpus(name)
    for cost in [*range(5), *EXTRA_COSTS.get(name, ())]:
        out = eval_at_cost(e, cost)
        assert isinstance(out, Value), f"{name}@{cost}: {out}"
        assert str(out.value) == golden[f"{name}@{cost}"], f"{name}@{cost}"
