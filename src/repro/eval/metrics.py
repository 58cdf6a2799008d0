"""Detector scoring against simulator ground truth."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.eval.results import EvalResultBase

if TYPE_CHECKING:
    from repro.core.chi import RoundFinding


@dataclass
class DetectionMetrics(EvalResultBase):
    """Round-level confusion for a detector on one experiment."""

    attack_rounds: int = 0
    benign_rounds: int = 0
    true_positive_rounds: int = 0
    false_positive_rounds: int = 0
    detection_round: Optional[int] = None  # first alarmed attack round
    detection_latency_rounds: Optional[int] = None

    derived = ("detected", "false_positive_rate", "recall")

    @property
    def detected(self) -> bool:
        return self.detection_round is not None

    @property
    def false_positive_rate(self) -> float:
        if self.benign_rounds == 0:
            return 0.0
        return self.false_positive_rounds / self.benign_rounds

    @property
    def recall(self) -> float:
        if self.attack_rounds == 0:
            return 0.0
        return self.true_positive_rounds / self.attack_rounds


def score_round_findings(
    findings: Sequence[RoundFinding],
    attack_first_round: Optional[int],
    attack_last_round: Optional[int] = None,
) -> DetectionMetrics:
    """Score χ-style per-round findings.

    Rounds in [attack_first_round, attack_last_round] are attack rounds;
    everything else is benign.  ``attack_first_round=None`` means a pure
    benign run.
    """
    metrics = DetectionMetrics()
    for finding in findings:
        in_attack = (
            attack_first_round is not None
            and finding.round_index >= attack_first_round
            and (attack_last_round is None
                 or finding.round_index <= attack_last_round)
        )
        if in_attack:
            metrics.attack_rounds += 1
            if finding.alarmed:
                metrics.true_positive_rounds += 1
                if metrics.detection_round is None:
                    metrics.detection_round = finding.round_index
                    metrics.detection_latency_rounds = (
                        finding.round_index - attack_first_round
                    )
        else:
            metrics.benign_rounds += 1
            if finding.alarmed:
                metrics.false_positive_rounds += 1
    return metrics
