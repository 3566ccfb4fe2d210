"""Repaired variants: canonical dtypes, aligned axes, numpy reductions."""

import numpy as np


def make_counts(num_vms):
    return np.zeros(num_vms, dtype=np.int64)


def platform_ints(num_pms):
    rows = np.zeros(num_pms, dtype=np.int64)
    cols = np.empty(num_pms, dtype=np.int64)
    return rows, cols


def demanded_mips(arrays):
    return arrays.vm_demand * arrays.vm_mips


def upcast(arrays):
    return arrays.pm_vm_count.astype(np.float64) * arrays.pm_mips


def integral_store(num_pms, i):
    counts = np.zeros(num_pms, dtype=np.int64)
    counts[i] += 1
    return counts


def numpy_total(num_pms):
    data = np.zeros(num_pms, dtype=np.float64)
    return float(np.sum(data))
