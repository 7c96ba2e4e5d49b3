"""PD at 100,000 jobs: columnar construction, epoch batching, streaming cost.

Ten times ``pd_10k_jobs.py``. At this scale three more pieces of the
performance model come into play:

* the instance is generated straight into a columnar
  :class:`~repro.model.job_arrays.JobArrays` block (the ``slotted``
  workload family) — no per-job ``Job`` objects are built up front;
* ``PDScheduler.arrive_many`` runs the main loop in **arrival
  epochs** (:mod:`repro.perf.epochs`): blocks of consecutive arrivals
  are consumed straight off the columns, with the release-order check
  and window lookups hoisted into batched numpy passes, and an exact
  scalar screen rejects every job whose price cap opens no interval of
  its window without building a kernel. The decisions are
  bit-identical to one ``arrive()`` per job — the differential suite
  (``tests/test_epochs.py``) asserts it — batching only removes
  interpreter overhead;
* cost is read off the scheduler's live per-interval stores with
  :meth:`PDScheduler.streaming_energy` / ``streaming_lost_value``
  instead of assembling the full ``(n, N)`` schedule matrix.

The example feeds the stream both ways, one ``arrive()`` per job and
one ``arrive_many()`` call, and prints their wall times side by side
(and checks the costs match to the bit), so you can see what the epoch
layer buys on your machine.

Run it:

    PYTHONPATH=src python examples/pd_100k_jobs.py

Expected: both runs complete in seconds, the ``arrive_many`` pass
noticeably faster, with byte-identical cost breakdowns.
"""

from __future__ import annotations

import time

from repro.core.pd import PDScheduler
from repro.workloads import slotted_instance


def run_feed(arrays, m: int, alpha: float, feed: str) -> tuple[float, float, float]:
    """One full pass, fed row by row (``"arrive"``) or as one block
    (``"arrive_many"``): (wall, energy, lost_value).

    Streaming accessors only — ``finish()`` would assemble the dense
    ``(n, N)`` matrix this example exists to avoid.
    """
    sched = PDScheduler(m=m, alpha=alpha)
    t0 = time.perf_counter()
    if feed == "arrive":
        for i in range(arrays.n):
            sched.arrive(arrays.job(i))
    else:
        sched.arrive_many(arrays)
    energy = sched.streaming_energy()
    lost = sched.streaming_lost_value()
    wall = time.perf_counter() - t0
    return wall, energy, lost


def main() -> None:
    t0 = time.perf_counter()
    inst = slotted_instance(100_000, slots=1000, m=4, alpha=3.0, seed=0)
    ordered = inst.sorted_by_release()
    arrays = ordered.arrays
    t_gen = time.perf_counter() - t0
    print(
        f"instance: {ordered.n} jobs over 1000 slots, m={ordered.m}, "
        f"alpha={ordered.alpha} (built columnar in {t_gen:.2f} s)"
    )

    t_arr, energy_arr, lost_arr = run_feed(
        arrays, ordered.m, ordered.alpha, "arrive"
    )
    print(
        f"arrive()     : {t_arr:6.2f} s ({1e6 * t_arr / arrays.n:.0f} us/job)"
    )
    t_epo, energy_epo, lost_epo = run_feed(
        arrays, ordered.m, ordered.alpha, "arrive_many"
    )
    print(
        f"arrive_many(): {t_epo:6.2f} s "
        f"({1e6 * t_epo / arrays.n:.0f} us/job, {t_arr / t_epo:.1f}x faster)"
    )

    assert (energy_epo, lost_epo) == (energy_arr, lost_arr), (
        "epoch batching must not change a bit"
    )
    print(
        f"cost {energy_arr + lost_arr:.1f} = energy {energy_arr:.1f} "
        f"+ lost value {lost_arr:.1f} — byte-identical both ways"
    )
    print("100k-job streaming pipeline: done")


if __name__ == "__main__":
    main()
