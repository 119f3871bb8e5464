import pytest

from fedsim.errors import InsufficientDataError, NonFiniteError, naming


def test_naming_prefixes_the_message_and_keeps_the_cause():
    with pytest.raises(InsufficientDataError) as err:
        with naming("client 2: fedboosting hold-out", NonFiniteError,
                    InsufficientDataError):
            raise InsufficientDataError("too few")
    assert type(err.value) is InsufficientDataError
    assert str(err.value) == "client 2: fedboosting hold-out: too few"
    cause = err.value.__cause__
    assert type(cause) is InsufficientDataError and str(cause) == "too few"


def test_naming_leaves_other_errors_alone():
    original = ValueError("plain")
    with pytest.raises(ValueError) as err:
        with naming("client 0: local training", NonFiniteError):
            raise original
    assert err.value is original
