"""Repaired variant: every aliased RNG constructor receives a seed."""

import random

import numpy.random as npr
from numpy.random import PCG64, RandomState, default_rng


def make_generators(seed):
    return [
        default_rng(seed),
        npr.default_rng(seed),
        random.Random(seed),
        RandomState(seed),
        PCG64(seed),
    ]
