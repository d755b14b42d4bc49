"""The package's public names are exactly its submodules' public names."""

from __future__ import annotations

import dhp
from dhp import budget, checkers, constructions, core, cycles, errors, formats, randlab

SUBMODULES = (core, formats, budget, checkers, cycles, constructions, randlab, errors)


def test_all_is_the_concatenation_of_submodule_all() -> None:
    assert list(dhp.__all__) == [name for mod in SUBMODULES for name in mod.__all__]


def test_all_has_no_duplicates() -> None:
    assert len(set(dhp.__all__)) == len(dhp.__all__)


def test_every_name_resolves_to_its_submodule_object() -> None:
    for mod in SUBMODULES:
        for name in mod.__all__:
            assert getattr(dhp, name) is getattr(mod, name), name
