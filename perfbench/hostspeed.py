"""Host speed probe: divides the drift of a shared host out of timings.

On a shared machine the speed of the host drifts, by up to 1.8x within a few
minutes, while the program stays the same; wall times of one workload then
spread more from run to run than any bound worth gating on.  A fixed probe,
which never calls ``jdl``, runs between the jobs of a run for ``SHARE`` of
each job's time, so it samples the host over the same minutes as the jobs and
in the same proportion.  Its mean unit time over ``REF_UNIT_S`` is the run's
slowdown; a timing divided by it reads in seconds at reference host speed.
A change to ``jdl`` moves such a timing fully; host drift mostly does not.

The probe does the kind of work ``jdl`` does: arithmetic on small Python
objects, as in its jets, kept alive in a list larger than the 2 MB L2 cache
of the host the baseline was measured on, and read back out of order, as
``jdl`` reads its memo caches.  A probe that stayed in the L1 cache tracked
dp-darboux5, whose jets fill about 180 MB, less well: over back-to-back jobs
in one process, 30 s windows divided by it spread 1.6 times as much.
"""
import time

# Seconds one probe unit takes on a host at reference speed: about the
# fastest this probe ran on the 2-core Xeon VM the baseline was measured on.
REF_UNIT_S = 0.04
# Probe time after each job, as a share of the job's time.
SHARE = 0.5
# Objects one unit keeps alive, about 3.5 MB of them; the stride visits
# them out of order and is coprime to their count.
UNIT_OBJECTS = 30_000
STRIDE = 7919


class _Dual:
    """A value and its derivative."""

    __slots__ = ("val", "der")

    def __init__(self, val, der):
        self.val = val
        self.der = der

    def __add__(self, other):
        return _Dual(self.val + other.val, self.der + other.der)

    def __mul__(self, other):
        return _Dual(self.val * other.val,
                     self.val * other.der + self.der * other.val)


def _unit():
    step = _Dual(1.0 + 1e-6, 1e-3)
    shift = _Dual(1e-7, 0.0)
    x = _Dual(1.0, 1.0)
    kept = []
    for _ in range(UNIT_OBJECTS):
        x = x * step + shift
        kept.append(x)
    acc = _Dual(0.0, 0.0)
    for i in range(0, UNIT_OBJECTS, 2):
        acc = acc + kept[i * STRIDE % UNIT_OBJECTS]
    return acc.val


class Probe:
    """Probe units run so far in one process, and their total time."""

    def __init__(self):
        self.seconds = 0.0
        self.units = 0

    def run(self, seconds):
        """Run whole probe units, at least one, for about ``seconds``."""
        t0 = time.perf_counter()
        end = t0 + seconds
        while True:
            _unit()
            self.units += 1
            t = time.perf_counter()
            if t >= end:
                break
        self.seconds += t - t0

    def after_job(self, job):
        """Probe for ``SHARE`` of the time of ``job``, a ``JobResult``."""
        self.run(SHARE * job.seconds)

    @property
    def slowdown(self):
        """Mean unit time over ``REF_UNIT_S``: 1 on a reference host."""
        return self.seconds / self.units / REF_UNIT_S
