"""Helpers shared by the test modules."""

import numpy as np

from repmlp.block import RepMLPTrainWeights
from repmlp.tensor import BnParams, ConvSpec, FcSpec

# every dyadic BN has var = 4^k - EXACT_EPS, so var + eps is exactly 1 or 4
EXACT_EPS = 2.0 ** -17


def walk_layers(layers):
    """Every layer of a graph, depth first: each layer, then the layers of
    its branches (add layers only) in order."""
    for layer in layers:
        yield layer
        for branch in layer.children:
            yield from walk_layers(branch)


def dyadic(rng, shape):
    """f64 values j/8 for integers j in [-4, 4], so |value| <= 1/2."""
    return rng.integers(-4, 5, shape) / 8.0


def dyadic_bn(rng, n):
    """A BN with dyadic mean, gamma and beta and var = 4^k - EXACT_EPS
    (k = 0 or 1): std is exactly 1 or 2, so the scale gamma/std is a
    multiple of 2^-4 and the shift beta - mean * scale one of 2^-7."""
    var = 4.0 ** rng.integers(0, 2, n) - EXACT_EPS
    return BnParams(dyadic(rng, n), var, dyadic(rng, n), dyadic(rng, n), eps=EXACT_EPS)


def dyadic_block_weights(cfg, rng):
    """Train-form block weights with every array dyadic, drawn in the
    dataclass's field order: fc3, fc3_bn, each branch's kernel then BN,
    gp_bn, fc1 and fc2 (kernel, then bias)."""
    g, c, o = cfg.groups, cfg.in_channels, cfg.out_channels
    fc3 = FcSpec(dyadic(rng, (cfg.fc_out_dim, cfg.fc_in_dim // g)), None, g)
    fc3_bn = dyadic_bn(rng, cfg.fc_out_dim)
    branches = tuple((ConvSpec(dyadic(rng, (o, c // g, k, k)), None, (k // 2, k // 2), g),
                      dyadic_bn(rng, o)) for k in cfg.branch_kernels)
    if not cfg.has_global_path:
        return RepMLPTrainWeights(fc3, fc3_bn, branches)
    d = cfg.gp_hidden
    gp_bn = dyadic_bn(rng, c)
    fc1 = FcSpec(dyadic(rng, (d, c)), dyadic(rng, d), 1)
    fc2 = FcSpec(dyadic(rng, (c, d)), dyadic(rng, c), 1)
    return RepMLPTrainWeights(fc3, fc3_bn, branches, gp_bn, fc1, fc2)


def fix_tile_sums(ints, cfg):
    """A block input j/8 from integers j of dims (N, C, H, W), after moving
    one pixel per (image, channel, tile) by less than h*w so that every
    tile sum is a multiple of h*w: each tile mean is then a multiple of
    2^-3, exact. ints is changed in place."""
    h, w = cfg.part_h, cfg.part_w
    tiles = ints.reshape(ints.shape[0], cfg.in_channels, cfg.parts_h, h, cfg.parts_w, w)
    tiles[:, :, :, 0, :, 0] -= tiles.sum(axis=(3, 5)) % (h * w)
    return ints / 8.0
