"""Suppression comments: ``# repro: ignore[RULE]``.

Grammar (whitespace-tolerant, rule lists comma-separated):

* ``# repro: ignore[CT001]`` -- suppress the listed rules on this line;
* ``# repro: ignore`` -- suppress every rule on this line;
* ``# repro: ignore-file[EP002]`` -- suppress the listed rules in the
  whole file (``ignore-file`` without brackets suppresses everything --
  reserve it for generated code).

Trailing prose after the bracket is encouraged: a suppression without a
reason is a review smell, e.g.::

    import numpy as np  # repro: ignore[CT002] -- benchmark-only helper

Suppressions are matched against the *line of the flagged AST node*, so
they belong on the offending line itself.
"""

from __future__ import annotations

import io
import re
import tokenize

_LINE_RE = re.compile(
    r"#\s*repro:\s*(?P<kind>ignore-file|ignore)\s*(?:\[(?P<rules>[^\]]*)\])?"
)

#: Wildcard entry meaning "every rule".
ALL_RULES = "*"


class SuppressionMap:
    """Per-file suppression state parsed from the comments of one module."""

    def __init__(self) -> None:
        self.by_line: dict[int, set[str]] = {}
        self.file_wide: set[str] = set()

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is suppressed at ``line`` (or file-wide)."""
        if ALL_RULES in self.file_wide or rule in self.file_wide:
            return True
        rules = self.by_line.get(line)
        if rules is None:
            return False
        return ALL_RULES in rules or rule in rules


def _parse_rule_list(raw: str | None) -> set[str]:
    if raw is None:
        return {ALL_RULES}
    rules = {entry.strip() for entry in raw.split(",") if entry.strip()}
    return rules or {ALL_RULES}


def parse_suppressions(source: str) -> SuppressionMap:
    """Extract the suppression map from a module's source text.

    Comments are found with :mod:`tokenize` so string literals containing
    the magic marker never register.  A file that fails to tokenize
    (which would also fail to parse) yields an empty map.
    """
    suppressions = SuppressionMap()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _LINE_RE.search(token.string)
            if match is None:
                continue
            rules = _parse_rule_list(match.group("rules"))
            if match.group("kind") == "ignore-file":
                suppressions.file_wide |= rules
            else:
                suppressions.by_line.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenizeError:
        pass
    return suppressions
