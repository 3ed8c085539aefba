"""Resource budget: wall-clock deadline plus a cap on enumerated monomials.

Long-running sweeps call `check()` at natural checkpoints; exceeding the
budget raises BudgetExceededError so the CLI can emit a partial report.
"""

import os
import time

from .errors import BudgetExceededError, StructureError

ENV_SECONDS = "RUMINBGG_BUDGET_SECONDS"
ENV_MONOMIALS = "RUMINBGG_MAX_MONOMIALS"

DEFAULT_SECONDS = 3600.0
DEFAULT_MONOMIALS = 2_000_000


class Budget:
    def __init__(self, seconds=None, max_monomials=None):
        if seconds is None:
            seconds = _from_env(ENV_SECONDS, float, DEFAULT_SECONDS)
        if max_monomials is None:
            max_monomials = _from_env(ENV_MONOMIALS, int, DEFAULT_MONOMIALS)
        # `not > 0` also refuses a NaN time budget, which would never trip
        if not (seconds > 0 and max_monomials > 0):
            raise StructureError(
                f"budget must be positive, got {seconds:g} s and {max_monomials} monomials"
            )
        self.seconds = seconds
        self.max_monomials = max_monomials
        self._start = time.monotonic()
        self._monomials = 0

    def check(self):
        if time.monotonic() - self._start > self.seconds:
            raise BudgetExceededError(f"wall-clock budget of {self.seconds:g}s exhausted")

    def count_monomials(self, n):
        self._monomials += n
        if self._monomials > self.max_monomials:
            raise BudgetExceededError(
                f"monomial budget of {self.max_monomials} exhausted ({self._monomials} enumerated)"
            )
        self.check()


def _from_env(name, kind, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return kind(raw)
    except ValueError:
        raise StructureError(f"{name} must be a number, got {raw!r}") from None
