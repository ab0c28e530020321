"""Each library module exports, in ``__all__``, every public function and
class it defines."""

import inspect

import pytest

from weylgabor import cylinder, gabor, groups, numerics, quantize, stellar


@pytest.mark.parametrize("module", [numerics, groups, gabor, cylinder,
                                    quantize, stellar],
                         ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(module):
    defined = {name for name, value in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == module.__name__}
    assert defined <= set(module.__all__)
