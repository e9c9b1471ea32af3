"""Reference-spin sampling: take host noise out of the timings.

The boxes this suite runs on are small shared VMs.  Identical work
varies 1.0x-2.2x in wall *and* CPU time there, with a slow component
that a 25 s window does not average out (README, "Noise"), so raw
seconds cannot resolve a 10 % change.  The slowdown is a property of
the core, not of the program, so a fixed arithmetic spin sampled on the
same core every 20 ms slows down by the same factor: dividing a phase's
wall time by the spin's mean slowdown over that phase leaves the time
the phase would have taken on a quiet reference core.

The spin is stdlib arithmetic only — nothing under ``src/`` — so a
regression in the checker cannot hide in it.  Durations are thread CPU
time, so waiting for the GIL is not counted.
"""

import os
import threading
import time

#: What one spin costs on the quiet reference core.  Any constant keeps
#: ratios between commits intact; this one makes reference seconds equal
#: wall seconds on an idle 2.1 GHz Xeon vCPU (the first baseline box).
SPIN_NOMINAL_S = 250e-6
SPIN_ITERS = 6000
PERIOD_S = 0.02
#: A window with fewer samples falls back to the whole run's mean.
MIN_SAMPLES = 5


def spin():
    total = 0
    for i in range(SPIN_ITERS):
        total += i * i % 7
    return total


class _Sampler(threading.Thread):
    def __init__(self, cpu):
        super().__init__(daemon=True, name=f"suite-calibrate-{cpu}")
        self.cpu = cpu
        self.samples = []  # (monotonic timestamp, spin thread-CPU seconds)
        self.stopping = threading.Event()

    def run(self):
        # The two vCPUs see different neighbours (their slowdowns
        # correlate at ~0.3), so a sample only speaks for its own core.
        os.sched_setaffinity(threading.get_native_id(), {self.cpu})
        thread_time = time.thread_time
        monotonic = time.monotonic
        samples = self.samples
        while not self.stopping.is_set():
            started = thread_time()
            spin()
            samples.append((monotonic(), thread_time() - started))
            self.stopping.wait(PERIOD_S)


class Calibrator:
    """Samples the reference spin on every CPU the workload runs on.

    ``pin=True`` (single-process workloads) confines the whole process
    to one CPU so the workload and the sampler share a core; the
    multi-process workload leaves the process unpinned and samples
    every CPU its workers may land on.
    """

    def __init__(self, pin):
        cpus = sorted(os.sched_getaffinity(0))
        if pin:
            cpus = cpus[-1:]  # the last CPU: CPU 0 also serves the interrupts
            os.sched_setaffinity(0, set(cpus))
        self._samplers = [_Sampler(cpu) for cpu in cpus]
        for sampler in self._samplers:
            sampler.start()

    def stop(self):
        for sampler in self._samplers:
            sampler.stopping.set()
        for sampler in self._samplers:
            sampler.join()

    def _mean_spin(self, start, end):
        means = []
        for sampler in self._samplers:
            window = [d for t, d in sampler.samples if start <= t <= end]
            if len(window) < MIN_SAMPLES:
                window = [d for _, d in sampler.samples]
            if window:
                means.append(sum(window) / len(window))
        return sum(means) / len(means) if means else SPIN_NOMINAL_S

    def slowdown(self, start=float("-inf"), end=float("inf")):
        """Mean spin cost over ``[start, end]`` (monotonic) / nominal."""
        return self._mean_spin(start, end) / SPIN_NOMINAL_S

    def sample_count(self):
        return sum(len(sampler.samples) for sampler in self._samplers)
