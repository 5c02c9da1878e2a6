import cra
from cra import sim


def test_public_names_pinned():
    assert sorted(cra.__all__) == [
        "ErrorBoundInputs", "Mode", "PreamblePool", "ProtocolParams",
        "Scheme", "SimConfig", "SparseScene", "SteadyState",
        "ThroughputEstimate", "backlog_drift",
        "detection_error_bounds", "estimate_throughput", "gen_pool",
        "instability_threshold", "lambert_w0", "mean_active_cra2",
        "mean_detected_cra2", "mean_detected_split", "ml_fa_trial",
        "ml_md_trial", "ml_support_search", "mmv_identifiable",
        "poisson_cdf", "prob_singleton", "prob_unused", "qfunc",
        "received_stage1", "received_stage2", "simulate_stability",
        "spark_bruteforce", "steady_state_cra2", "support_error_prob",
        "throughput_cra1", "throughput_maloha",
    ]
    assert all(hasattr(cra, name) for name in cra.__all__)
    # the benchmark's tracer finds stage1_outcome through sim.__all__
    assert "stage1_outcome" in sim.__all__
