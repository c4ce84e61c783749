"""Outcome record shared by the ideal and predicate checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import ElementSet


@dataclass(frozen=True)
class Verdict:
    """Result of a decidable predicate over a structure.

    holds is True or False once the predicate was evaluated; None means the
    check could not run (for example a missing identity) and note says why.
    witness_s carries the certifying element for S-flavoured predicates.
    counterexample is a sorted tuple: carrier indices for element-level
    predicates, lattice indices for ideal-level ones.  An ideal-level
    counterexample also carries the hyperideals its indices name in
    ``ideals``, so it renders without the lattice.
    """

    holds: bool | None
    witness_s: int | None = None
    counterexample: tuple[int, ...] | None = None
    note: str | None = None
    ideals: tuple[ElementSet, ...] | None = None

    def counterexample_names(self, names: Sequence[str]) -> list[str] | None:
        """The counterexample in carrier names: an element name per entry,
        or a rendered hyperideal per entry of an ideal-level one."""
        if self.counterexample is None:
            return None
        if self.ideals is not None:
            return [q.render(names) for q in self.ideals]
        return [names[i] for i in self.counterexample]

    def render(self, names: Sequence[str] | None = None) -> str:
        if self.holds is None:
            return f"not evaluated ({self.note})"
        parts = ["true" if self.holds else "false"]
        if self.witness_s is not None:
            parts.append(f"witness={names[self.witness_s] if names else self.witness_s}")
        if self.counterexample is not None:
            if names:
                body = ",".join(self.counterexample_names(names))
            else:
                body = ",".join(str(i) for i in self.counterexample)
            parts.append(f"counterexample=({body})")
        if self.note:
            parts.append(f"({self.note})")
        return " ".join(parts)
