"""Structured pass/fail results.

Checkers return a Verdict instead of raising: a failed law is a result,
not an exception.  Witnesses are plain JSON-able dicts so the CLI can
embed them in reports unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class Verdict:
    ok: bool
    law: str
    witness: Optional[dict] = None
    sampled: bool = False

    @classmethod
    def passing(cls, law: str, witness: Optional[dict] = None, sampled: bool = False) -> "Verdict":
        return cls(True, law, witness, sampled)

    @classmethod
    def failing(cls, law: str, witness: dict, sampled: bool = False) -> "Verdict":
        return cls(False, law, witness, sampled)

    def as_dict(self) -> dict:
        d: dict[str, Any] = {"ok": self.ok, "law": self.law}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.sampled:
            d["sampled"] = True
        return d
