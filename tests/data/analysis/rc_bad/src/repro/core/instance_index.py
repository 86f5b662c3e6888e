"""Fixture: the module the import rules resolve names against."""

EMPTY_COLUMN = ()
