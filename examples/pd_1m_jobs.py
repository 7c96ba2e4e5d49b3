"""PD at 1,000,000 jobs: the arrival-epoch batched main loop at full tier.

The million-job point of the ``pd-1m`` bench scenario, as a runnable
walkthrough. Fed row by row, PD prices one job per Python ``arrive()``
call; at this tier the interpreter choreography around each call
(window lookup, kernel build) costs more than the water-filling
arithmetic itself. ``arrive_many()`` runs the arrival-epoch layer
(:mod:`repro.perf.epochs`), which consumes the columnar job stream in
blocks: one vectorized release-order check and one batched window
lookup per block, then one comparison per job against the least
opening speed of its window (the speed below which an interval absorbs
nothing), which rejects, without a kernel, every job whose price cap
opens no interval of its window (95% of this stream). Only the jobs
that actually move water fall through to the scalar water-fill.
Decisions are bit-identical — batching changes how, never what.

The script first races ``arrive()`` against ``arrive_many()`` on a
100k-job prefix of the same stream (cheap enough to run twice) and
checks the costs match to the bit, then runs the full million jobs
through ``arrive_many()``.

Run it:

    PYTHONPATH=src python examples/pd_1m_jobs.py

Expected: the 100k calibration shows the epoch speedup with identical
costs, and the full 1M-job epoch run finishes in seconds (about 3 s on
a 2-core x86_64 box) where one ``arrive()`` per job takes about 26 s.
"""

from __future__ import annotations

import time

from repro.core.pd import PDScheduler
from repro.workloads import slotted_instance


def timed_run(arrays, m: int, alpha: float, feed: str) -> tuple[float, float]:
    """(wall seconds, streaming cost) of one full pass, fed row by row
    (``"arrive"``) or as one block (``"arrive_many"``)."""
    sched = PDScheduler(m=m, alpha=alpha)
    t0 = time.perf_counter()
    if feed == "arrive":
        for i in range(arrays.n):
            sched.arrive(arrays.job(i))
    else:
        sched.arrive_many(arrays)
    cost = sched.streaming_cost()
    return time.perf_counter() - t0, cost


def main() -> None:
    m, alpha = 4, 3.0

    # --- calibration: both feeds on a 100k prefix, bit-compared -------
    small = slotted_instance(100_000, slots=1000, m=m, alpha=alpha, seed=0)
    arrays = small.sorted_by_release().arrays
    t_arr, cost_arr = timed_run(arrays, m, alpha, "arrive")
    t_epo, cost_epo = timed_run(arrays, m, alpha, "arrive_many")
    assert cost_epo == cost_arr, "epoch batching must not change a bit"
    print(
        f"100k calibration: arrive() {t_arr:.2f} s, arrive_many() "
        f"{t_epo:.2f} s ({t_arr / t_epo:.1f}x), costs byte-identical"
    )

    # --- the full tier: 1M jobs through the epoch path ----------------
    t0 = time.perf_counter()
    big = slotted_instance(1_000_000, slots=1000, m=m, alpha=alpha, seed=0)
    big_arrays = big.sorted_by_release().arrays
    t_gen = time.perf_counter() - t0
    print(f"1M-job instance built columnar in {t_gen:.2f} s")

    wall, cost = timed_run(big_arrays, m, alpha, "arrive_many")
    print(
        f"arrive_many(), 1M jobs: {wall:6.2f} s "
        f"({1e6 * wall / big_arrays.n:.1f} us/job), cost {cost:.1f}"
    )
    print("million-job epoch pipeline: done")


if __name__ == "__main__":
    main()
