"""Hierarchical lookup hash structures HLH1 / HLHk (paper Figs. 4-6).

``HLH1`` keeps candidate seasonal *single events*:

* ``EH``  (single event hash table): event key -> support set granules;
* ``GH``  (event granule hash table): the event's granules -> the event
  instances occurring there, as one
  :class:`~repro.core.instance_index.InstanceColumn` per granule (the
  start-sorted ``starts`` / ``ends`` bounds the step-2.2 kernels read).

``HLHk`` (k >= 2) keeps candidate seasonal *k-event groups and patterns*:

* ``EHk`` (k-event hash table): sorted k-event group -> group support set
  plus the group's candidate patterns;
* ``PHk`` (pattern hash table): candidate pattern -> its support granules;
* ``GHk`` (pattern granule hash table): per granule, the instance tuples
  from which the pattern's relations are formed.

The Python dictionaries are the hash tables; the "hierarchical" linking of
the paper (EH values are GH keys, EHk values feed PHk, PHk values feed GHk)
is realized by sharing the same key objects across levels.

Supports are stored as whatever representation the miner hands in --
:class:`~repro.core.supportset.SupportSet` bitsets on the hot path, plain
sorted lists in legacy callers; the structures never convert.  The
``candidates`` / ``groups`` / ``patterns`` views are cached lists that are
invalidated on insertion: the mining loops read them once per level, and
rebuilding a fresh list per property access was measurable in the hot
loops.  Treat the returned lists as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.instance_index import EMPTY_COLUMN, InstanceColumn, decode_assignment
from repro.core.pattern import TemporalPattern
from repro.core.supportset import SupportLike
from repro.events.event import EventInstance


@dataclass
class HLH1:
    """Candidate seasonal single events with their supports and instances."""

    eh: dict[str, SupportLike] = field(default_factory=dict)
    gh: dict[str, dict[int, InstanceColumn]] = field(default_factory=dict)
    _candidates: list[str] | None = field(default=None, repr=False, compare=False)

    def add_event(
        self,
        event: str,
        support: SupportLike,
        columns: dict[int, InstanceColumn],
    ) -> None:
        """Insert a candidate single event (Alg. 1 line 4).

        ``columns`` maps the event's granules to its instance columns
        there; a single-event run, which never enumerates instances,
        passes ``{}``.
        """
        self.eh[event] = support
        self.gh[event] = columns
        self._candidates = None

    def support_of(self, event: str) -> SupportLike:
        """Support set of a candidate event (``SUP_E``)."""
        return self.eh[event]

    def column_of(self, event: str, granule: int) -> InstanceColumn:
        """The start-sorted instance column of ``(event, granule)``.

        :data:`EMPTY_COLUMN` where the event does not occur.
        """
        columns = self.gh.get(event)
        if columns is None:
            return EMPTY_COLUMN
        return columns.get(granule, EMPTY_COLUMN)

    def __getstate__(self):
        """Pickle only the hash tables; the candidate list is per-process."""
        return {"eh": self.eh, "gh": self.gh}

    def __setstate__(self, state) -> None:
        self.eh = state["eh"]
        self.gh = state["gh"]
        self._candidates = None

    @property
    def candidates(self) -> list[str]:
        """The candidate single events F1, in insertion order (read-only)."""
        if self._candidates is None:
            self._candidates = list(self.eh)
        return self._candidates

    def __len__(self) -> int:
        return len(self.eh)

    def __contains__(self, event: str) -> bool:
        return event in self.eh


#: One realizing assignment of a pattern, chronologically ordered -- what
#: GHk stores per granule, in the *compact encoding*: a tuple of column
#: indices parallel to the pattern's ``events`` (``assignment[i]`` indexes
#: the instance of ``pattern.events[i]`` in its ``(event, granule)``
#: column -- see :mod:`repro.core.instance_index`).
#: :meth:`HLHk.decoded_assignments_of` rematerializes instance tuples.
Assignment = tuple[int, ...]


@dataclass
class GroupEntry:
    """The EHk value object: group support + candidate patterns."""

    support: SupportLike
    patterns: list[TemporalPattern] = field(default_factory=list)


@dataclass
class HLHk:
    """Candidate seasonal k-event groups and patterns for one level k.

    GHk exists only so that level k + 1 can extend its assignments.
    Nothing extends the last level (``k == max_pattern_length``), so
    there the extension kernel (k >= 3) and the streaming miner record
    supports only, and every GHk entry is an empty per-granule
    table.
    """

    k: int
    ehk: dict[tuple[str, ...], GroupEntry] = field(default_factory=dict)
    phk: dict[TemporalPattern, SupportLike] = field(default_factory=dict)
    ghk: dict[TemporalPattern, dict[int, list[Assignment]]] = field(default_factory=dict)
    _groups: list[tuple[str, ...]] | None = field(default=None, repr=False, compare=False)
    _patterns: list[TemporalPattern] | None = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        """Pickle only the hash tables; cached list views are per-process."""
        return {"k": self.k, "ehk": self.ehk, "phk": self.phk, "ghk": self.ghk}

    def __setstate__(self, state) -> None:
        self.k = state["k"]
        self.ehk = state["ehk"]
        self.phk = state["phk"]
        self.ghk = state["ghk"]
        self._groups = None
        self._patterns = None

    def add_group(self, group: tuple[str, ...], support: SupportLike) -> GroupEntry:
        """Insert a candidate k-event group (Alg. 1 line 12)."""
        entry = GroupEntry(support=support)
        self.ehk[group] = entry
        self._groups = None
        return entry

    def add_pattern(
        self,
        pattern: TemporalPattern,
        support: SupportLike,
        assignments: dict[int, list[Assignment]],
    ) -> None:
        """Insert a candidate k-event pattern into PHk/GHk and its group."""
        self.phk[pattern] = support
        self.ghk[pattern] = assignments
        self._patterns = None
        entry = self.ehk.get(pattern.event_group)
        if entry is not None:
            entry.patterns.append(pattern)

    def remove_pattern(self, pattern: TemporalPattern) -> None:
        """Remove a candidate pattern from PHk/GHk and its group entry.

        Used by the streaming miner when a group's pattern state is
        rebuilt from scratch (its incremental premise broke); the batch
        miner never removes patterns.
        """
        self.phk.pop(pattern, None)
        self.ghk.pop(pattern, None)
        self._patterns = None
        entry = self.ehk.get(pattern.event_group)
        if entry is not None and pattern in entry.patterns:
            entry.patterns.remove(pattern)

    def support_of(self, pattern: TemporalPattern) -> SupportLike:
        """Support set of a candidate pattern (``SUP_P``)."""
        return self.phk[pattern]

    def assignments_of(self, pattern: TemporalPattern, granule: int) -> list[Assignment]:
        """Realizing assignments of ``pattern`` at ``granule`` (encoded)."""
        return self.ghk[pattern].get(granule, [])

    def decoded_assignments_of(
        self, pattern: TemporalPattern, granule: int, hlh1: HLH1
    ) -> list[tuple[EventInstance, ...]]:
        """Realizing *instance tuples* of ``pattern`` at ``granule``.

        Decodes the compact column-index assignments through ``hlh1``'s
        instance columns -- the reporting / inspection view of GHk.
        """
        events = pattern.events
        return [
            decode_assignment(hlh1, events, granule, encoded)
            for encoded in self.assignments_of(pattern, granule)
        ]

    @property
    def groups(self) -> list[tuple[str, ...]]:
        """Candidate k-event groups Fk, in insertion order (read-only)."""
        if self._groups is None:
            self._groups = list(self.ehk)
        return self._groups

    @property
    def patterns(self) -> list[TemporalPattern]:
        """Candidate k-event patterns, in insertion order (read-only)."""
        if self._patterns is None:
            self._patterns = list(self.phk)
        return self._patterns

    def events_in_patterns(self) -> set[str]:
        """Single events occurring in any candidate pattern of this level.

        This powers the transitivity filter (Lemma 4): only these events
        can extend a (k)-group into a candidate (k+1)-group.
        """
        present: set[str] = set()
        for pattern in self.phk:
            present.update(pattern.events)
        return present

    def __len__(self) -> int:
        return len(self.phk)
