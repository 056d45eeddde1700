"""Structured pass/fail reports for the verification suites.

Reports are deterministic: identical inputs and seed produce identical
bytes.  Wall-clock timings are collected but excluded from the
serialized document unless explicitly requested, precisely so that the
byte-determinism contract holds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

__all__ = ["CheckResult", "VerificationReport", "run_check"]


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    params: dict = field(default_factory=dict)
    witness: str | None = None
    runtime_s: float | None = None

    def to_doc(self, include_timings: bool = False) -> dict:
        doc = {
            "name": self.name,
            "status": self.status,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "witness": self.witness,
        }
        if include_timings:
            doc["runtime_s"] = self.runtime_s
        return doc


@dataclass
class VerificationReport:
    suite: str
    seed: int | None
    params: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def add(self, result: CheckResult) -> None:
        self.checks.append(result)

    def extend(self, results: Iterable[CheckResult], prefix: str = "",
               **params) -> None:
        """Append results, each name prefixed and params merged in."""
        for c in results:
            self.add(replace(c, name=prefix + c.name,
                             params=dict(c.params, **params)))

    def to_doc(self, include_timings: bool = False) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "passed": self.passed,
            "checks": [c.to_doc(include_timings) for c in self.checks],
        }

    def to_bytes(self, include_timings: bool = False) -> bytes:
        doc = self.to_doc(include_timings)
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()

    def to_text(self, include_timings: bool = False) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            mark = {"pass": "ok  ", "fail": "FAIL", "skip": "skip"}[c.status]
            extra = ""
            if c.params:
                extra = " (" + ", ".join(
                    f"{k}={c.params[k]}" for k in sorted(c.params)
                ) + ")"
            if include_timings and c.runtime_s is not None:
                extra += f" [{c.runtime_s:.3f} s]"
            lines.append(f"  [{mark}] {c.name}{extra}")
            if c.witness:
                lines.append(f"         {c.witness}")
        if include_timings:  # in "all", a check's suite is its name's prefix
            totals: dict[str, float] = {}
            for c in self.checks:
                name = c.name.split(":", 1)[0] if self.suite == "all" else self.suite
                totals[name] = totals.get(name, 0.0) + (c.runtime_s or 0.0)
            lines += [f"suite {name} {t:.3f} s" for name, t in totals.items()]
        return "\n".join(lines) + "\n"


def run_check(name: str, fn: Callable[[], str | None], **params) -> CheckResult:
    """Run one check.  fn returns None on success or a witness string.

    Exceptions are reported as failures rather than crashing the suite.
    """
    t0 = time.perf_counter()
    try:
        witness = fn()
        status = "pass" if witness is None else "fail"
    except Exception as exc:  # noqa: BLE001 - verifier must report, not die
        witness = f"exception: {exc!r}"
        status = "fail"
    return CheckResult(
        name=name,
        status=status,
        params=params,
        witness=witness,
        runtime_s=time.perf_counter() - t0,
    )
