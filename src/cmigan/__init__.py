"""Conditional mutual information estimation via adversarial training.

Public surface: the network engine (`neuralnet`), variational bound
objectives (`bounds`), adversarial and kNN estimators (`estimators`,
`knn`), synthetic generators with known truths (`datagen`), the
conditional-independence-testing harness (`citest`), CSV/JSON plumbing
(`dataio`), and the command-line interface (`cli`).
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .bounds import (
    FDIV_EXP_CLAMP,
    ScorePair,
    dv_objective,
    fdiv_objective,
    log_mean_exp,
)
from .citest import CITBenchReport, auroc, ci_decide, run_cit_benchmark
from .datagen import (
    MODEL_IDS,
    ModelParams,
    gen_cit,
    gen_gauss,
    gen_linear1,
    gen_linear2,
    gen_linear3,
    gen_nonlinear,
    regenerate,
    true_cmi,
)
from .dataio import ColumnMapping, DataError, LoadedCsv, load_csv, save_csv
from .estimators import (
    ESTIMATOR_IDS,
    EstimateReport,
    EstimatorConfig,
    SampleSet,
    cmi_gan_estimate,
    estimate,
    f_mine_mi_estimate,
    mi_diff_cmi_estimate,
    mi_diff_gan_estimate,
    mi_gan_estimate,
)
from .knn import KSGConfig, KSGResult, ground_truth_nonlinear, ksg_cmi, ksg_mi
from .neuralnet import (
    GradCheckReport,
    MLPParams,
    MLPSpec,
    NumericalError,
    RMSPropState,
    ScheduleConfig,
    gradient_check,
    lr_at,
    mlp_backward,
    mlp_forward,
    mlp_init,
    rmsprop_init,
    rmsprop_step,
)

# every public name imported above, and the version; not the submodules
__all__ = ["__version__", *(name for name, value in dict(globals()).items()
                            if not name.startswith("_") and not isinstance(value, _ModuleType))]
