"""Fixture: the checkpoint-picklability violation (EP002)."""


class LevelState:
    """EP002: per-process cache shipped by default pickling."""

    def __init__(self):
        self.values = []
        self._column_cache = {}
