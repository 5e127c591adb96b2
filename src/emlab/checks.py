"""The record of one checked claim, as the analyses return it."""


def check(name, value, tolerance, passed=None, gate=True):
    """A check record; its verdict is ``value <= tolerance`` unless ``passed``
    gives another.  A failed gated check is a violation of the run."""
    if passed is None:
        passed = value <= tolerance
    return {"name": name, "value": value, "tolerance": tolerance,
            "passed": bool(passed), "gate": bool(gate)}
