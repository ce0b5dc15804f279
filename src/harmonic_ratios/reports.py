"""Structured pass/fail reports for numeric and exact property checks."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class VerificationReport:
    """Outcome of one property check.

    ``passed`` is a deterministic function of the recorded numbers and the
    tolerance; the extremes dict carries every measured quantity the decision
    was based on, so a report is auditable without rerunning the check.
    """

    name: str
    passed: bool
    extremes: Dict[str, Any] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    tolerance: float = 0.0
    notes: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.notes or self.extremes}"


@dataclass
class NodalAnalysisReport:
    """Sampled structure of a nodal set: zeros, critical points, depths."""

    name: str
    zero_points: List[List[float]] = field(default_factory=list)
    critical_points: List[List[float]] = field(default_factory=list)
    depths: List[Dict[str, Any]] = field(default_factory=list)
    classifications: List[Dict[str, Any]] = field(default_factory=list)
    nodal_domain_count: Optional[int] = None
    tolerance_value: float = 0.0
    tolerance_gradient: float = 0.0
    notes: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)
