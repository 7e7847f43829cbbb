"""The package's public names."""
import types

import thetacalc


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(thetacalc.__all__)) == len(thetacalc.__all__)
    assert {"eval_operator", "EvalDomainError"} <= set(thetacalc.__all__)
    for name in thetacalc.__all__:
        obj = getattr(thetacalc, name)
        assert not isinstance(obj, types.ModuleType), name
