"""Fixture: broken export (RC003), broken import (RC101)."""

from repro.core.instance_index import (
    COLUMN_GONE,  # RC101: instance_index does not bind this
    EMPTY_COLUMN,
)

__all__ = ["mine", "vanished"]  # RC003: 'vanished' is unbound


def mine():
    return EMPTY_COLUMN
