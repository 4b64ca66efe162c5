"""The README's examples run as written."""
import json
import re
from pathlib import Path

from bidfm import fileio

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_python_examples_run_in_order():
    examples = blocks("python")
    assert examples
    namespace = {}
    for example in examples:  # later examples use names the earlier ones bind
        exec(compile(example, "README.md", "exec"), namespace)


def test_model_config_builds():
    (example,) = blocks("json")
    config = json.loads(example)
    params = fileio.params_from_config(config)
    assert len(params.row_membership.labels) == config["n_r"]
    assert len(params.col_membership.labels) == config["n_c"]
