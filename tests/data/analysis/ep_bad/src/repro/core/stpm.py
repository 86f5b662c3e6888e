"""Fixture: every checkpoint-picklability violation (EP002/EP003)."""


class LevelState:
    """EP002: per-process cache shipped by default pickling."""

    def __init__(self):
        self.values = []
        self._column_cache = {}


MINERS = {"exact": lambda dseq: dseq}  # EP003: lambda registry value
