"""The README's examples run as it states: the library quick start, the inline
payload configs, the exit codes and the key entry points."""

import contextlib
import io
import json
import pathlib
import re

import rankgrowth
from rankgrowth import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start")[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_what_its_comments_state():
    code = _quick_start()
    stated = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert "1/2*Y^2 + 3/2*Y + 1" in stated
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == stated


def test_readme_exit_codes_match_the_cli():
    section = README.read_text(encoding="utf-8").split("Exit codes")[1]
    listed = dict(re.findall(r"^- `(\d)` ([^;:]*)", section.split("\n\n")[1], re.M))
    codes = {
        name: value for name, value in vars(cli).items() if name.startswith("EXIT_")
    }
    assert sorted(map(int, listed)) == sorted(codes.values())
    for name, value in codes.items():
        # EXIT_INPUT_ERROR is listed as "input or usage error", and so on
        assert name.split("_")[1].lower() in listed[str(value)]


def test_readme_key_entry_points_exist():
    section = README.read_text(encoding="utf-8").split("Key entry points")[1]
    names = re.findall(r"^- `([\w.]+)", section.split("\n\n")[1], re.M)
    assert "PipelineResult.phi_rank_value" in names
    for name in names:
        # a dotted name resolves through its class
        owner = rankgrowth
        for part in name.split("."):
            assert hasattr(owner, part), f"README lists {name}, not in rankgrowth"
            owner = getattr(owner, part)


def test_readme_inline_payload_configs_run():
    section = README.read_text(encoding="utf-8").split("Backend payloads:")[1]
    found = re.findall(r'`(\{"(?:backend|mode)".*?\})`', section, re.S)
    configs = [json.loads(text) for text in found]
    assert [config["mode"] for config in configs] == ["phi-rank", "sumset"]
    for config in configs:
        code, doc = cli.execute(config)
        assert code == cli.EXIT_CERTIFIED, doc["error"]
