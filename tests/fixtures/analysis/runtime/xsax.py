"""Fixture whose path suffix matches REQUIRED_HOT: ``_end`` lost its marker.

``XSAXReader.__next__``, ``_start`` and ``_skipped`` are marked, so the checker must
report exactly one HL005 here.
"""


class XSAXReader:
    def __next__(self):  # hot-loop
        return None

    def _start(self, event):  # hot-loop
        return event

    def _end(self, event):
        return event

    def _skipped(self, event):  # hot-loop
        return event
