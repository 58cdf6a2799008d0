"""Smoke tests over the per-figure experiment harness (fast subset).

The full-scale runs live in ``benchmarks/``; here each experiment is
exercised at reduced size so the harness itself stays correct.
"""

import pytest

from repro.eval import AdversarySpec, droptail_spec, experiments as ex
from repro.eval.metrics import score_round_findings
from repro.core.chi import RoundFinding


class TestMetrics:
    def finding(self, round_index, alarmed):
        f = RoundFinding(round_index=round_index, target=("r", "rd"))
        f.single_alarm = alarmed
        return f

    def test_pure_benign(self):
        findings = [self.finding(i, False) for i in range(5)]
        m = score_round_findings(findings, None)
        assert m.benign_rounds == 5
        assert not m.detected
        assert m.false_positive_rate == 0.0

    def test_detection_latency(self):
        findings = [self.finding(i, i >= 7) for i in range(10)]
        m = score_round_findings(findings, attack_first_round=5)
        assert m.detected
        assert m.detection_round == 7
        assert m.detection_latency_rounds == 2

    def test_false_positives_only_outside_attack(self):
        findings = [self.finding(0, True), self.finding(5, True)]
        m = score_round_findings(findings, attack_first_round=5)
        assert m.false_positive_rounds == 1
        assert m.true_positive_rounds == 1

    def test_recall(self):
        findings = [self.finding(i, i % 2 == 0) for i in range(4, 8)]
        m = score_round_findings(findings, attack_first_round=4)
        assert m.recall == pytest.approx(0.5)


class TestPrCurves:
    def test_fig5_2_monotone_then_saturating(self):
        curve = ex.fig5_2_pr_pi2("ebone", ks=(1, 2, 3))
        rows = curve.rows()
        assert rows[0][2] < rows[1][2] <= rows[2][2]  # mean grows

    def test_fig5_4_smaller_than_fig5_2(self):
        pi2 = ex.fig5_2_pr_pi2("ebone", ks=(2,)).series[2]
        pik2 = ex.fig5_4_pr_pik2("ebone", ks=(2,)).series[2]
        assert pik2["mean"] < pi2["mean"]

    def test_state_overhead_vs_watchers(self):
        result = ex.state_overhead("ebone", ks=(2,))
        assert result.pik2_counters[2]["mean"] < result.watchers_mean


class TestConfidenceCurve:
    def test_fig6_2_shape(self):
        curve = ex.fig6_2_confidence_curve(q_limit=30_000, sigma=1_000)
        confidences = [c for _, c in curve.points]
        assert confidences[0] > 0.999  # empty queue: drop is damning
        assert confidences[-1] < 0.5  # full queue: drop is plausible
        assert confidences == sorted(confidences, reverse=True)

    def test_fig6_2_sigma_widens_transition(self):
        sharp = ex.fig6_2_confidence_curve(sigma=200).points
        smooth = ex.fig6_2_confidence_curve(sigma=5_000).points
        # with larger sigma, mid-queue confidence is further from extremes
        mid = len(sharp) // 2
        assert abs(smooth[mid][1] - 0.5) <= abs(sharp[mid][1] - 0.5) + 1e-9


class TestBaselineDemos:
    def test_watchers_flaw_and_fix(self):
        demo = ex.watchers_flaw_demo()
        assert not demo.values["original_detects_attacker"]
        assert demo.values["fixed_detects_attacker"]

    def test_perlman_framing(self):
        demo = ex.perlman_collusion_demo()
        assert demo.values["perlmand_framed_correct_link"]

    def test_sectrace_framing(self):
        demo = ex.sectrace_framing_demo()
        assert demo.values["framed_correct_link"]

    def test_awerbuch_log_rounds(self):
        demo = ex.awerbuch_localization_demo()
        assert demo.values["contains_attacker"]
        assert demo.values["rounds"] <= demo.values["log2_bound"] + 1


class TestDropTailScenariosFast:
    """Reduced-duration versions of Figs 6.5/6.6 (full runs in benches)."""

    SCHEDULE = dict(learning_until=14.0, first_round=7, rounds=19,
                    attack_at=20.0, end=42.0)

    def test_no_attack_silent(self):
        result = ex.run_testbed("fast-benign",
                                droptail_spec(**self.SCHEDULE))
        assert result.false_positives == 0

    def test_attack_detected(self):
        result = ex.run_testbed("fast-attack", droptail_spec(
            adversary=AdversarySpec("drop", 0.25,
                                    options={"flows": ["tcp1"]}),
            **self.SCHEDULE))
        assert result.detected
        assert result.false_positives == 0
        assert result.malicious_drops_truth > 0
