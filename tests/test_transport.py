"""Pool record transport: records come back from workers unchanged.

Pool workers hand each result back to the parent through the
executor's own result channel, which pickles the payload. That wire
must be invisible: a pooled run yields the same records, cache keys
included, as a serial run of the same requests.
"""

from __future__ import annotations

import math

import pytest

from repro.engine.runner import BatchRunner, RunRequest, record_to_payload
from repro.workloads import poisson_instance


def canonical(payload: dict) -> dict:
    """Record payload with measured/provenance fields normalized.

    ``wall_time`` is a measurement, ``cached`` is delivery provenance
    (a hit of the same bytes), and NaN compares unequal to itself —
    none of them is record content.
    """
    out = dict(payload)
    out.pop("wall_time", None)
    out.pop("cached", None)
    for key in ("certified_ratio", "dual_g"):
        if isinstance(out.get(key), float) and math.isnan(out[key]):
            out[key] = "NaN"
    return out


class TestRunnerParity:
    """Records are identical whichever path carried them."""

    def requests(self):
        instances = [
            poisson_instance(n, m=1, alpha=3.0, seed=seed)
            for n, seed in ((20, 1), (30, 2), (25, 3))
        ]
        return [
            RunRequest(algorithm, instance)
            for instance in instances
            for algorithm in ("pd", "yds")
        ]

    # The pool has one wire, the executor's pickle channel; the id names it.
    @pytest.mark.parametrize("wire", ["pickle"])
    def test_pool_records_match_serial(self, wire):
        requests = self.requests()
        serial = BatchRunner(workers=1).run(requests)
        pooled = BatchRunner(workers=2).run(requests)
        assert len(serial) == len(pooled)
        for a, b in zip(serial, pooled):
            assert a.key == b.key
            assert canonical(record_to_payload(a)) == canonical(
                record_to_payload(b)
            )
