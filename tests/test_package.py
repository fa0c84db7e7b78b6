import cmigan

# every name ``from cmigan import *`` gives
_STAR_NAMES = {
    "CITBenchReport", "ColumnMapping", "DataError", "ESTIMATOR_IDS", "EstimateReport",
    "EstimatorConfig", "FDIV_EXP_CLAMP", "GradCheckReport", "KSGConfig", "KSGResult",
    "LoadedCsv", "MLPParams", "MLPSpec", "MODEL_IDS", "ModelParams", "NumericalError",
    "RMSPropState", "SampleSet", "ScheduleConfig", "ScorePair", "__version__", "auroc",
    "ci_decide", "cmi_gan_estimate", "dv_objective", "estimate", "f_mine_mi_estimate",
    "fdiv_objective", "gen_cit", "gen_gauss", "gen_linear1", "gen_linear2", "gen_linear3",
    "gen_nonlinear", "gradient_check", "ground_truth_nonlinear", "ksg_cmi", "ksg_mi",
    "load_csv", "log_mean_exp", "lr_at", "mi_diff_cmi_estimate", "mi_diff_gan_estimate",
    "mi_gan_estimate", "mlp_backward", "mlp_forward", "mlp_init", "regenerate",
    "rmsprop_init", "rmsprop_step", "run_cit_benchmark", "save_csv", "true_cmi",
}


def test_star_import_names_pinned():
    namespace = {}
    exec("from cmigan import *", namespace)
    assert set(namespace) - {"__builtins__"} == _STAR_NAMES
    assert len(cmigan.__all__) == len(_STAR_NAMES) == 53
    assert namespace["__version__"] == cmigan.__version__
