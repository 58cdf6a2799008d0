"""The §6.4.3 unsoundness of static loss thresholds."""


class TestUnsoundnessDemonstration:
    """The full §6.4.3 sweep lives in the bench; here a fast cut-down."""

    def test_no_sound_threshold_exists(self):
        from repro.eval.experiments import chi_vs_static_threshold
        comparison = chi_vs_static_threshold(thresholds=(1, 5, 20))
        assert comparison.unsound_thresholds() == [1, 5, 20]
        assert comparison.chi_detected
        assert comparison.chi_fp_rounds == 0
