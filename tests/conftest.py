import pytest

# Failing asserts inside the shared oracles show both sides.
pytest.register_assert_rewrite("_helpers")

try:
    from hypothesis import Phase, settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # No deadline: an example's run time varies with the machine and the
    # draws. No explain phase: on a shrunk example of variable-length draws
    # it can fail inside hypothesis (an assertion on span starts) and print
    # no example.
    settings.register_profile("netqsim", deadline=None, phases=set(Phase) - {Phase.explain})
    settings.load_profile("netqsim")
