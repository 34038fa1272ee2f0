"""Pass/fail reports shared by the verification pipelines.

One line per checked condition; serialization is deterministic so report
bytes are stable across runs for identical inputs.
"""

import itertools
from collections import namedtuple

CheckLine = namedtuple("CheckLine", ["cond_id", "passed", "witness"])


def _jsonable(value, as_text=False):
    """``value`` as JSON data.  With ``as_text`` (a report over Q) a tuple
    is an element, and its coordinates are written as their fraction text,
    "3" as well as "1/2"."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, tuple) and as_text:
        return [str(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, as_text) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v, as_text) for k, v in sorted(value.items())}
    return str(value)


def failures(holds, first, *rest):
    """The index tuples at which ``holds`` is false, in nested-loop order
    (``first`` outermost).  ``first`` is read lazily, so a scan stopped at
    its first failure enumerates nothing further; ``rest`` must be
    re-iterable."""
    for head in first:
        for tail in itertools.product(*rest):
            if not holds(head, *tail):
                yield (head, *tail)


class Report:
    """Check lines.  ``ring`` is the ring of the elements in the witnesses,
    which fixes how their coordinates are written."""

    def __init__(self, title, ring=None):
        self.title = title
        self.lines = []
        self.ring = ring

    def add(self, cond_id, passed, witness=None):
        self.lines.append(CheckLine(cond_id, bool(passed), witness))

    @property
    def all_pass(self):
        return all(line.passed for line in self.lines)

    def failures(self):
        return [line for line in self.lines if not line.passed]

    def to_json(self):
        as_text = self.ring is not None and self.ring.kind == "Q"
        return {
            "title": self.title,
            "all_pass": self.all_pass,
            "lines": [
                {
                    "cond_id": line.cond_id,
                    "passed": line.passed,
                    "witness": _jsonable(line.witness, as_text),
                }
                for line in self.lines
            ],
        }

    def __repr__(self):
        status = "all-pass" if self.all_pass else f"{len(self.failures())} failing"
        return f"Report({self.title!r}, {len(self.lines)} lines, {status})"
