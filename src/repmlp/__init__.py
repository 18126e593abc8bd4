"""Locality-injected block-MLP building blocks with exact offline folding.

The training-time block mixes a fully connected mapping over image tiles
with small conv branches and a pooled cross-tile path; after training the
conv branches and every BN fold into the FC weights, leaving three plain
FC layers that compute the same function.
"""

from .block import (
    RepMLPConfig,
    RepMLPTrainWeights,
    check_block_input,
    check_train_weights,
    forward_train,
    random_train_weights,
)
from .checkpoint import (
    FORM_INFER,
    FORM_TRAIN,
    CheckpointError,
    load_block_checkpoint,
    save_infer_checkpoint,
    save_train_checkpoint,
)
from .models import (
    MODEL_BUILDERS,
    Model,
    block_flops,
    block_params,
    build_pure_mlp_cifar,
    build_resnet50,
    build_wide_convnet,
    convert_graph,
    convert_model_weights,
    count_flops,
    count_params,
    init_model_weights,
    run_model,
)
from .reparam import (
    RepMLPInferWeights,
    absorb_bn_into_fc1,
    check_infer_weights,
    convert_block,
    forward_infer,
    fuse_bn_into_conv,
)
from .tensor import (
    BnParams,
    ConvSpec,
    FcSpec,
    ShapeError,
    avg_pool_global,
    batchnorm_inference,
    conv2d,
    grouped_fc,
    inverse_partition,
    partition,
)
from .verify import (
    build_grid,
    check_cell,
    format_config,
    full_grid,
    parse_config,
    run_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "BnParams",
    "CheckpointError",
    "ConvSpec",
    "FORM_INFER",
    "FORM_TRAIN",
    "FcSpec",
    "MODEL_BUILDERS",
    "Model",
    "RepMLPConfig",
    "RepMLPInferWeights",
    "RepMLPTrainWeights",
    "ShapeError",
    "absorb_bn_into_fc1",
    "avg_pool_global",
    "batchnorm_inference",
    "block_flops",
    "block_params",
    "build_grid",
    "build_pure_mlp_cifar",
    "build_resnet50",
    "build_wide_convnet",
    "check_block_input",
    "check_cell",
    "check_infer_weights",
    "check_train_weights",
    "conv2d",
    "convert_block",
    "convert_graph",
    "convert_model_weights",
    "count_flops",
    "count_params",
    "format_config",
    "forward_infer",
    "forward_train",
    "full_grid",
    "fuse_bn_into_conv",
    "grouped_fc",
    "init_model_weights",
    "inverse_partition",
    "load_block_checkpoint",
    "parse_config",
    "partition",
    "random_train_weights",
    "run_equivalence",
    "run_model",
    "save_infer_checkpoint",
    "save_train_checkpoint",
    "__version__",
]
