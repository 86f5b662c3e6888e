"""Fixture: conformant export surface (clean)."""

from repro.core.instance_index import EMPTY_COLUMN

__all__ = ["mine"]


def mine():
    return EMPTY_COLUMN
