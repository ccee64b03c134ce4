"""Constraint hook the cli-pipeline workload passes to ``realstab sample --constraint``."""


def perturbed_stability_is_proper(R_perturbed, S_perturbed) -> bool:
    """Every entry of the perturbed stability matrix is proper."""
    return S_perturbed.is_proper()
