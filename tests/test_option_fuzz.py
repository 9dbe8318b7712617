"""Fuzzing the option parsers: whatever text `--f` or `--n` holds,
`parse_f_family` and `parse_n_list` either return or raise ConfigError,
never anything else, with overflow and invalid operations raising as they
do under the CLI."""
import numpy as np
import pytest

import folner_lab as fl
from folner_lab.cli import ConfigError, parse_f_family, parse_n_list

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

numbers = (st.integers().map(str)
           | st.floats().map(repr)
           | st.sampled_from(["inf", "-inf", "nan", "1e308", "-1e308", "5e-324", "", " 3 ", "x"]))
# any COUNT: under the patched 1 MiB of memory, a COUNT past 3382 hats is
# refused by the memory check before any hat is built
f_items = (st.builds("poly:{}".format, numbers)
           | st.builds("hat:{}:{}:{}".format, st.integers() | numbers, numbers, numbers)
           | st.builds("hat:{}".format, numbers)
           | st.text(max_size=12))
f_texts = st.text() | st.lists(f_items, max_size=4).map(",".join)
n_texts = (st.text()
           | st.lists(numbers, max_size=5).map(",".join)
           | st.builds("dyadic:{}:{}".format, numbers, numbers)
           | st.builds("dyadic:{}".format, st.text(max_size=8)))


def _returns_or_refuses(parse, text):
    try:
        with np.errstate(over="raise", invalid="raise"):
            parse(text)
    except ConfigError:
        pass


@FUZZ
@given(text=f_texts)
@example(text="hat:2:-inf:inf")
@example(text="hat:3:1:-1")
@example(text="hat:2:-1e308:1e308")
@example(text="hat:2:nan:1")
@example(text="poly:100000000000000000000")
@example(text="hat:100000000000:0:1")
@example(text="hat:3382:0:1,hat:3383:0:1")
def test_f_family(monkeypatch, text):
    # the memory reading is patched small, so that a large poly:K or
    # hat:COUNT is refused by its check and never built
    monkeypatch.setattr(fl._util, "_physical_memory", lambda: 1 << 20)
    _returns_or_refuses(parse_f_family, text)


@FUZZ
@given(text=n_texts)
@example(text="dyadic:0:63")
@example(text="dyadic:-1:2")
@example(text="1," + "9" * 5000)
def test_n_list(text):
    _returns_or_refuses(parse_n_list, text)
