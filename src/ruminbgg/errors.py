"""Exception hierarchy shared across the library and the CLI exit codes."""


class StructureError(ValueError):
    """Malformed input: dimension mismatch, non-rational coefficient, bad file.

    Distinct from an axiom violation, which is a well-formed algebra failing
    a Lie-algebra axiom and is reported, not raised.
    """


class UnsupportedStepError(StructureError):
    """Group calculus restricted to 2-step algebras."""


class IdentityError(AssertionError):
    """An exact operator identity failed; carries a witness element."""

    def __init__(self, identity, witness=None, detail=""):
        self.identity = identity
        self.witness = witness
        self.detail = detail
        msg = f"identity failed: {identity}"
        if witness is not None:
            msg += f" (witness: {witness})"
        if detail:
            msg += f" -- {detail}"
        super().__init__(msg)


class BudgetExceededError(RuntimeError):
    """Resource budget (wall clock or monomial count) exhausted."""

    def __init__(self, reason, partial=None):
        self.reason = reason
        self.partial = partial
        super().__init__(reason)


def check_identity(rows, name, check, budget=None):
    """Append the report row of identity name to rows: ok, or fail with the
    witness of the IdentityError that check() raised.

    The budget is checked first.  An exhausted budget is not a row: the
    BudgetExceededError propagates with the rows so far as its partial.
    """
    try:
        if budget is not None:
            budget.check()
        check()
    except BudgetExceededError as err:
        err.partial = list(rows)
        raise
    except IdentityError as err:
        rows.append({"identity": name, "status": "fail", "counterexample": str(err.witness)})
        return
    rows.append({"identity": name, "status": "ok"})
