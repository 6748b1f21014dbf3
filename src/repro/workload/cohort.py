"""Client cohorts: many identical leaf clients as one weighted process.

At web scale most readers are *statistically identical*: same cache, same
session guarantees, same think-time and page-popularity distributions.
Simulating each one as its own process (address space, session, event
stream) is what caps populations in the tens.  A
:class:`~repro.workload.generator.ReaderWorkload` with ``weight=k``
collapses ``k`` such clients into one process that issues **batched
reads** -- a single protocol request stamped with the cohort weight,
which the store's read path, the trace recorder and every metric then
count as ``weight`` client reads (a plain reader is the same class at
weight 1; see
``weight=`` on :meth:`repro.web.webobject.Browser.read_page` and
``ReadEvent.weight``).

The collapse is exact as long as every member would have made the same
policy-visible decisions: they share one admission outcome (same store,
same session requirement), one replica choice (same binding) and one
served version.  The moment a decision can *diverge* -- a fault makes
the shared request fail, where real clients would individually retry,
time out, or hit different replicas -- the cohort **expands**: the
failed round is charged to every member (they all saw the same fault at
the same instant), and from the next round on the cohort issues
per-member weight-1 reads through individually bound browsers (the
``expand`` callback, typically
:meth:`repro.workload.scenarios.Deployment.expand_cohort`).  Without an
expand callback the cohort keeps batching and keeps charging errors at
full weight -- a documented coarsening, acceptable for fault-free
benchmarks.
"""

from __future__ import annotations

from typing import List


def cohort_sizes(population: int, cohort_size: int) -> List[int]:
    """Split ``population`` clients into cohort weights of ``cohort_size``.

    The last cohort takes the remainder, so weights always sum to the
    population: ``cohort_sizes(10, 4) == [4, 4, 2]``.
    """
    if population < 0:
        raise ValueError(f"population must be >= 0, got {population!r}")
    if cohort_size < 1:
        raise ValueError(f"cohort size must be >= 1, got {cohort_size!r}")
    full, rest = divmod(population, cohort_size)
    sizes = [cohort_size] * full
    if rest:
        sizes.append(rest)
    return sizes
