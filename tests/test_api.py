"""Public surface: the root re-exports each module's names, and no per-call tolerance knobs."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import borelcensus as bc
from borelcensus import invverify, lieverify

MODULES = [bc] + [
    importlib.import_module(f"borelcensus.{info.name}")
    for info in pkgutil.iter_modules(bc.__path__)
]


# the library modules in re-export order; cli is the front end, not the library
LIBRARY = [
    importlib.import_module(f"borelcensus.{name}")
    for name in (
        "errors",
        "partitions",
        "flags",
        "special",
        "pairs",
        "lieverify",
        "invverify",
        "published",
    )
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_every_library_module_defines_all():
    assert {m.__name__ for m in MODULES if not hasattr(m, "__all__")} == {"borelcensus.cli"}
    assert {m.__name__ for m in LIBRARY} == {
        m.__name__ for m in MODULES if m is not bc and hasattr(m, "__all__")
    }


def test_root_reexports_each_module_all_once():
    assert bc.__all__ == ["__version__", *(name for m in LIBRARY for name in m.__all__)]
    assert len(set(bc.__all__)) == len(bc.__all__) == 67
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(bc, name) is getattr(module, name), (module.__name__, name)


def test_restated_group_types_are_gone():
    # the decomposition is the generated group; prefix sums place the blocks
    for module in MODULES:
        for name in (
            "GroupStructure",
            "BorelDescriptor",
            "borel_descriptor",
            # the window plan and its swaps are read off the decomposition
            "first_window_with_involution",
            "_window_swap",
            # weyl(p).factors is the multiplicity table; a block swap is an InvolutionSpec
            "MultiplicityProfile",
            "FixedSubspaceSpec",
            "profile",
            # a skew basis is the (k, n, n) array itself
            "SkewBasis",
        ):
            assert not hasattr(module, name), (module.__name__, name)


def test_one_rank_threshold_and_no_tolerance_options():
    assert not hasattr(invverify, "RANK_TOL")
    for fn in (
        bc.generated_group,
        bc.intersection_dim,
        bc.transitive_on,
        bc.involution_normalizes,
        bc.closure,
    ):
        params = set(inspect.signature(fn).parameters)
        assert not params & {"kind", "rank_tol", "tol"}, (fn.__name__, params)
    assert list(inspect.signature(lieverify._rank).parameters) == ["mat"]
    assert [f.name for f in dataclasses.fields(bc.LieClosure)] == [
        "basis",
        "dimension",
        "iterations",
        "residual_kept_min",
        "residual_dropped_max",
    ]


def test_count_records_stay_dict_backed():
    # perfbench/workloads.py reads the two count records with vars(), and
    # cli.py renders every record below with vars(), so they keep their
    # __dict__ while the hot exact types are slotted.
    records = (
        bc.partition_counts(10),
        bc.class_census(10),
        bc.weyl(bc.Partition((2, 2))).involutions[0],
        bc.verify_pair(bc.Partition((4, 4)), bc.Partition((2, 2, 2, 2)), 4),
        bc.table_errata()[0],
        bc.family(12),
    )
    for record in records:
        fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
        assert vars(record) == fields
