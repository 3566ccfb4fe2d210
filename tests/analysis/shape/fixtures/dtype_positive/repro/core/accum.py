"""Seeded-in defects: dtype and axis slips in a hot module."""

import numpy as np


def make_counts(num_vms):
    return np.zeros(num_vms, dtype=np.int32)


def platform_ints(num_pms):
    rows = np.zeros(num_pms, dtype=np.intc)
    cols = np.empty(num_pms, dtype=np.intp)
    return rows, cols


def mixed_axes(arrays):
    return arrays.vm_demand * arrays.pm_mips


def upcast(arrays):
    return arrays.pm_vm_count * arrays.pm_mips


def truncating_store(num_pms, i):
    counts = np.zeros(num_pms, dtype=np.int64)
    counts[i] += 0.5
    return counts


def python_total(num_pms):
    data = np.zeros(num_pms, dtype=np.float64)
    return sum(data)
