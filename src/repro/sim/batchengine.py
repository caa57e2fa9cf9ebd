"""Placeholder for a name the repository benchmark's tracer resolves.

``bench/trace.py`` wraps ``BatchSimulator.run``; nothing in ``repro``
calls it.  It runs its simulators in order on the solo engine.  A
benchmark-only change removes this module together with that target.
"""


class BatchSimulator:
    def __init__(self, sims, metrics=None):
        self.sims = list(sims)

    def run(self):
        return [sim.run() for sim in self.sims]
