"""Fixture: the picklability contract respected (clean)."""


class LevelState:
    def __init__(self):
        self.values = []
        self._column_cache = {}

    def __getstate__(self):
        return {"values": self.values}

    def __setstate__(self, state):
        self.values = state["values"]
        self._column_cache = {}
