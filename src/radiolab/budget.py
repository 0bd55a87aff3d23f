"""Deterministic search deadlines measured in search-tree nodes.

All exact searches in this package count the nodes they expand against a
:class:`SearchBudget`.  Node counts are deterministic and portable, unlike
wall-clock time, so identical inputs always give identical outcomes.  A
search that exhausts its budget returns the :data:`TIMEOUT` sentinel, which
is deliberately distinct from ``None``: ``None`` means the search space was
exhausted and is usable as a proof of non-existence, ``TIMEOUT`` is a
non-answer.
"""

from __future__ import annotations

import os

DEFAULT_NODE_BUDGET = 10_000_000

ENV_NODE_BUDGET = "RADIOLAB_NODE_BUDGET"


class _Timeout:
    """Singleton sentinel for an exhausted search budget."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TIMEOUT"

    def __bool__(self):
        return False


TIMEOUT = _Timeout()


class SearchBudget:
    """Mutable countdown of search-tree nodes.

    One instance may be threaded through several cooperating searches so
    that their combined work stays under a single deadline.
    """

    __slots__ = ("remaining", "spent")

    def __init__(self, nodes: int = DEFAULT_NODE_BUDGET):
        if nodes < 1:
            raise ValueError("node budget must be >= 1")
        self.remaining = int(nodes)
        self.spent = 0

    def charge(self, nodes: int = 1) -> bool:
        """Consume ``nodes``; return False once the budget is exhausted."""
        self.spent += nodes
        self.remaining -= nodes
        return self.remaining >= 0


def as_budget(deadline: int | SearchBudget | None) -> SearchBudget:
    """Coerce an int node count (or None for the default) to a SearchBudget."""
    if deadline is None:
        return SearchBudget(default_node_budget())
    if isinstance(deadline, SearchBudget):
        return deadline
    return SearchBudget(deadline)


def default_node_budget() -> int:
    """Default node budget, overridable via RADIOLAB_NODE_BUDGET; a value
    that is not an integer >= 1 is a ValueError, as for SearchBudget."""
    raw = os.environ.get(ENV_NODE_BUDGET)
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        return SearchBudget(int(raw)).remaining
    except ValueError:
        raise ValueError(f"{ENV_NODE_BUDGET} must be an integer >= 1, got {raw!r}") from None
