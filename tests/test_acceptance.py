"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v`` or via ``kscrit verify``.
"""

import pytest

from kscrit.acceptance import REGISTRY


@pytest.mark.parametrize("criterion", list(REGISTRY), ids=list(REGISTRY))
def test_acceptance_criterion(criterion):
    items = REGISTRY[criterion]()
    assert items, f"{criterion} produced no checks"
    for item in items:
        status = "PASS" if item.passed else "FAIL"
        print(
            f"{status} {item.criterion} {item.name}: expected {item.expected}, "
            f"actual {item.actual}, tolerance {item.tolerance}"
        )
    failures = [i for i in items if not i.passed]
    assert not failures, "; ".join(
        f"{i.name}: expected {i.expected}, actual {i.actual} (tol {i.tolerance})"
        for i in failures
    )


def test_ac3_and_ac4_build_each_kernel_table_once(monkeypatch):
    from kscrit import acceptance, kernels

    builds = []

    def counting_build(d, alpha):
        builds.append((d, alpha))
        return kernels.build_kernel_table(d, alpha)

    monkeypatch.setattr(acceptance, "build_kernel_table", counting_build)
    acceptance._fractional_tables.cache_clear()
    try:
        items = acceptance.ac3() + acceptance.ac4()
    finally:
        acceptance._fractional_tables.cache_clear()
    assert all(item.passed for item in items)
    assert len(builds) == 6 and len(set(builds)) == 6
