"""One record for every check battery.

A :class:`Report` names what was checked (``subject``), how many samples
each check was asked for (``trials``) and the seed that drew them, and
holds one :class:`Check` per law.  A check carries its verdict, how many
samples it actually examined, the first failing sample (``counterexample``)
and any supporting data (``witness``).  Nested verdicts are checks of their
own, named ``parent:part``, so a report's verdict is always the conjunction
of its checks and no producer aggregates by hand.

Every sampled check runs through :func:`check_laws`: laws over one
stream of samples, each stopped at its first failure, whose trial index
and data are its counterexample.

Reports are deterministic for a given seed: ``to_json`` holds no timing,
and it leaves out a counterexample or witness that is ``None``.

This module imports nothing from the rest of the package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = ["Check", "Report", "check_laws", "scan", "short_repr", "tally"]


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
        rng = random.Random(seed)
        self.results += check_laws((sampler(rng) for _ in range(self.trials)),
                                   {axiom: law})

    def to_json(self) -> dict:
        out = {"subject": self.subject, "trials": self.trials, "seed": self.seed,
               "ok": self.ok, "results": [c.to_json() for c in self.results]}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def short_repr(x: Any) -> str:
    text = repr(x)
    return text if len(text) <= 160 else text[:157] + "..."


def check_laws(samples: Iterable[dict],
               laws: Mapping[str, Callable[..., Any]]) -> list[Check]:
    """Test every law on each sample in turn, one check per law, in order.

    A law takes the sample's entries as keywords and returns a verdict:
    true, or None, when the sample passes; False when it fails, with the
    sample's (abbreviated) entries as the counterexample; or a dict, its
    own counterexample.  A law is not tested again after its first
    failure, whose trial index heads the counterexample, and no sample is
    drawn once every law has failed.
    """
    pending = dict(laws)
    failed: dict[str, Check] = {}
    checked = 0
    for trial, sample in enumerate(samples):
        checked = trial + 1
        for axiom, law in list(pending.items()):
            verdict = law(**sample)
            if isinstance(verdict, dict):
                bad = verdict
            elif verdict is None or verdict:
                continue
            else:
                bad = {k: short_repr(v) for k, v in sample.items()}
            failed[axiom] = Check(axiom, False, checked, {"trial": trial, **bad})
            del pending[axiom]
        if not pending:
            break
    return [failed[axiom] if axiom in failed else Check(axiom, True, checked)
            for axiom in laws]


def scan(axiom: str, items: Iterable, defect: Callable[[Any], dict | None]) -> Check:
    """Examine items in order and stop at the first one with a defect.

    ``defect(item)`` returns None when the item passes and the
    counterexample data otherwise.
    """
    return check_laws(({"item": item} for item in items),
                      {axiom: lambda item: defect(item)})[0]


def tally(axiom: str, rounds: Sequence[tuple[bool, dict]]) -> Check:
    """A check over rounds that all ran: (verdict, data) per round.

    Every round's data is the witness; the first failing round, with its
    index, is the counterexample.
    """
    bad = next(({"trial": i, **data} for i, (ok, data) in enumerate(rounds)
                if not ok), None)
    return Check(axiom, bad is None, len(rounds), bad,
                 [data for _, data in rounds])
