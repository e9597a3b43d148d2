"""REPRO-F003 fixture: the hot-path entry point itself stays clean —
the allocation hides in a helper module (badproj.helper), outside any
listed kernel module; only the call-graph closure finds it."""

from badproj.helper import accumulate


class Engine:
    def __init__(self, scale):
        self.scale = scale

    def step(self, values):
        return self.scale * accumulate(values)
