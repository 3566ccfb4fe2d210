"""Seeded-in defects: unseeded RNG constructors behind import aliases."""

import random

import numpy.random as npr
from numpy.random import PCG64, RandomState, default_rng


def make_generators():
    return [
        default_rng(),
        npr.default_rng(),
        random.Random(),
        RandomState(),
        PCG64(),
    ]
