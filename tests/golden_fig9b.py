"""The Figure 9(b) golden: frequent items with tree retransmissions.

Figure 9(b) takes about 7 s at quick size, so this file is not part of the
tier-1 suite (its name does not match ``test_*.py``); CI runs it by path::

    PYTHONPATH=src python -m pytest -q tests/golden_fig9b.py

It pins the false negatives and positives of TAG, SD and TD with tree
nodes retransmitting twice, recorded on the hand-written runners before
they became configurations of one tree pass and one Tributary-Delta pass.
"""

from __future__ import annotations

import hashlib
import json

FIG9B_GOLDEN = "c5531ba5a4071f8b804a75d15b99251b7d7d3e270f816569967a6f6d58e53c6c"


def test_figure9b_series_is_the_recorded_one(quick_figure):
    result = quick_figure("fig9b")
    series = [result.false_negatives, result.false_positives]
    digest = hashlib.sha256(json.dumps(series, sort_keys=True).encode()).hexdigest()
    assert digest == FIG9B_GOLDEN
