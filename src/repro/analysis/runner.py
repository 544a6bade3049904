"""The ``repro lint`` runner: load tree, run checkers, emit the report.

The JSON report schema is pinned (and asserted by ``tests/test_analysis``)::

    {
      "version": 1,
      "root": "<analysis root>",
      "rules": ["async-blocking-call", ...],
      "counts": {"<rule>": <int>, ...},   # post-suppression
      "suppressed": <int>,
      "findings": [{"rule", "path", "line", "message"}, ...]
    }

Exit status: 0 on zero findings, 1 otherwise — CI runs it as a hard gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.async_blocking import AsyncBlockingChecker
from repro.analysis.base import Checker, Finding, SourceTree, load_tree
from repro.analysis.error_taxonomy import ErrorTaxonomyChecker
from repro.analysis.gate_discipline import GateDisciplineChecker

REPORT_VERSION = 1


def default_checkers() -> List[Checker]:
    return [
        GateDisciplineChecker(),
        AsyncBlockingChecker(),
        ErrorTaxonomyChecker(),
    ]


def default_root() -> Path:
    """The installed ``repro`` package directory (the live tree)."""
    return Path(__file__).resolve().parent.parent


@dataclass
class Report:
    root: str
    findings: List[Finding]
    suppressed: int
    rules: List[str] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {rule: 0 for rule in self.rules}
        for finding in self.findings:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": REPORT_VERSION,
            "root": self.root,
            "rules": self.rules,
            "counts": self.counts,
            "suppressed": self.suppressed,
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_text(self) -> str:
        if not self.findings:
            note = f" ({self.suppressed} suppressed)" if self.suppressed else ""
            return f"repro lint: 0 findings{note}"
        lines = [f.render() for f in self.findings]
        lines.append(
            f"repro lint: {len(self.findings)} finding(s), "
            f"{self.suppressed} suppressed"
        )
        return "\n".join(lines)


def run_lint(
    root: Optional[Path] = None,
    checkers: Optional[Sequence[Checker]] = None,
    tree: Optional[SourceTree] = None,
) -> Report:
    """Run ``checkers`` over ``root`` (default: the live repro tree)."""
    if tree is None:
        tree = load_tree(root if root is not None else default_root())
    active = list(checkers) if checkers is not None else default_checkers()
    kept: List[Finding] = []
    suppressed = 0
    for checker in active:
        for finding in checker.run(tree):
            src = tree.get(finding.path)
            if src is not None and src.suppressed(finding.rule, finding.line):
                suppressed += 1
            else:
                kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return Report(
        root=str(tree.root),
        findings=kept,
        suppressed=suppressed,
        rules=[c.rule for c in active],
    )
