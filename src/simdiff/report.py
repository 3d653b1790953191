"""One record for every check battery.

A :class:`Report` names what was checked (``subject``), how many samples
each check was asked for (``trials``) and the seed that drew them, and
holds one :class:`Check` per law.  A check carries its verdict, how many
samples it actually examined, the first failing sample (``counterexample``)
and any supporting data (``witness``).  Nested verdicts are checks of their
own, named ``parent:part``, so a report's verdict is always the conjunction
of its checks and no producer aggregates by hand.

Reports are deterministic for a given seed: ``to_json`` holds no timing,
and it leaves out a counterexample or witness that is ``None``.

This module imports nothing from the rest of the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

__all__ = ["Check", "Report", "sampled", "scan", "short_repr", "tally"]


@dataclass
class Check:
    axiom: str
    ok: bool
    checked: int
    counterexample: dict | None = None
    witness: Any = None

    def to_json(self) -> dict:
        out = {"axiom": self.axiom, "ok": self.ok, "checked": self.checked}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    subject: str
    trials: int
    seed: int
    results: list[Check] = field(default_factory=list)
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.results)

    def failures(self) -> list[Check]:
        return [c for c in self.results if not c.ok]

    def result(self, axiom: str) -> Check:
        for c in self.results:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def sample(self, axiom: str, sampler: Callable[[random.Random], dict],
               law: Callable[..., bool], seed: int) -> None:
        """Append a sampled check of ``trials`` rounds drawn from its own seed."""
        self.results.append(
            sampled(axiom, self.trials, sampler, law, random.Random(seed)))

    def to_json(self) -> dict:
        out = {"subject": self.subject, "trials": self.trials, "seed": self.seed,
               "ok": self.ok, "results": [c.to_json() for c in self.results]}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def short_repr(x: Any, limit: int = 160) -> str:
    text = repr(x)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def scan(axiom: str, items: Iterable, defect: Callable[[Any], dict | None]) -> Check:
    """Examine items in order and stop at the first one with a defect.

    ``defect(item)`` returns None when the item passes and the
    counterexample data otherwise.
    """
    checked = 0
    for item in items:
        checked += 1
        bad = defect(item)
        if bad is not None:
            return Check(axiom, False, checked, bad)
    return Check(axiom, True, checked)


def sampled(axiom: str, rounds: int, sampler: Callable[[random.Random], dict],
            law: Callable[..., bool], rng: random.Random) -> Check:
    """Draw up to ``rounds`` samples from rng and test the law on each.

    Stops at the first failing sample, whose trial index and (abbreviated)
    data are the counterexample.
    """
    def defect(trial: int) -> dict | None:
        data = sampler(rng)
        if law(**data):
            return None
        return {"trial": trial, **{k: short_repr(v) for k, v in data.items()}}

    return scan(axiom, range(rounds), defect)


def tally(axiom: str, rounds: Sequence[tuple[bool, dict]]) -> Check:
    """A check over rounds that all ran: (verdict, data) per round.

    Every round's data is the witness; the first failing round, with its
    index, is the counterexample.
    """
    bad = next(({"trial": i, **data} for i, (ok, data) in enumerate(rounds)
                if not ok), None)
    return Check(axiom, bad is None, len(rounds), bad,
                 [data for _, data in rounds])
