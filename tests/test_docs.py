"""The examples in README.md and in `rfvlc.config`'s docstring run as shown."""
import pathlib
import re
import textwrap

import rfvlc.config
from rfvlc.config import SWEEP_AXES, emit_config, parse_config

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _fenced(lang):
    """The one ```lang block of README.md."""
    [block] = re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)
    return block


def test_readme_config_round_trips():
    parsed = parse_config(_fenced("ini"))
    text = emit_config(parsed)
    assert parse_config(text) == parsed
    assert emit_config(parse_config(text)) == text


def test_readme_lists_every_sweep_axis():
    # the `axis` comment of the example config, with its continuation lines
    comments = [line.partition("#")[2] for line in _fenced("ini").splitlines()]
    i = next(i for i, c in enumerate(comments) if "one of:" in c)
    listed = comments[i].partition("one of:")[2]
    for comment in comments[i + 1:]:
        if not comment.startswith("   "):
            break
        listed += comment
    assert [axis.strip() for axis in listed.split(",")] == list(SWEEP_AXES)


def test_config_docstring_example_parses():
    doc = rfvlc.config.__doc__
    example = textwrap.dedent(doc[doc.index("Example:") + len("Example:"):])
    parsed = parse_config(example)
    assert parsed.system.vlc.optical_power == 0.25
    assert parsed.sweep is not None and parsed.mc.trials == 1_000_000


def test_readme_library_snippet():
    snippet = _fenced("python")
    printed = re.search(r"^outage_probability\(cfg\) +# (\S+)$", snippet, re.M).group(1)
    assert printed == "0.10969812690047863"
    namespace = {}
    exec(snippet, namespace)
    assert namespace["outage_probability"](namespace["cfg"]) == float(printed)
