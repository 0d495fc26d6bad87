"""The record of one verified claim instance, shared by the check suite
(``verify``) and the quartic root (``quartic``), so that a quartic job
loads neither the suite nor the word layer to report its check."""

from collections import namedtuple


class CheckReport(namedtuple("CheckReport", "check n expected actual passed")):
    """One verified claim instance; passes iff expected == actual.

    ``passed`` is always derived: a value given for it is ignored.
    """

    __slots__ = ()

    def __new__(cls, check, n, expected, actual, passed=False):
        return super().__new__(cls, check, n, expected, actual, expected == actual)

    @classmethod
    def _make(cls, fields):
        # namedtuple's own _make, which _replace calls, skips __new__.
        return cls(*fields)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "n": self.n,
            "expected": self.expected,
            "actual": self.actual,
            "pass": self.passed,
        }
