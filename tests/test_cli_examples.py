"""The CLI examples: each file of ``cli_examples/`` is one ``rankgrowth run``
and what is expected of it.

An example is a JSON object with these keys:

- ``about``: what the example shows;
- ``config``: the problem config, written to a file and run;
- ``args``: further arguments of ``rankgrowth run``, such as ``["--box", "8"]``
  (optional);
- ``exit``: the exit code;
- ``values``: document values by dotted path, such as
  ``{"polynomial.pretty": "Y + 31"}``, each equal to its JSON value
  exactly (optional);
- ``counts``: substrings, each with the number of times it occurs in the
  document's strings (optional);
- ``timeout``: the seconds the console script may take (optional).

One checker, ``check``, serves two runners.  Under pytest each example
runs in-process through ``cli.main``, so the tier-1 suite covers them all.
Run as a script,

    python tests/test_cli_examples.py

each example runs through the ``rankgrowth`` command on PATH, under its
``timeout``, and the exit code is 1 if any example fails.  The script
uses the standard library only and never imports ``rankgrowth``, so run
from outside the checkout it tests the installed package.  A new CLI case
is covered by adding its file.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

EXAMPLES = pathlib.Path(__file__).resolve().parent / "cli_examples"
NAMES = sorted(path.stem for path in EXAMPLES.glob("*.json"))
KEYS = {"about", "config", "args", "exit", "values", "counts", "timeout"}
_ABSENT = object()


def load(name: str) -> dict:
    return json.loads((EXAMPLES / f"{name}.json").read_text(encoding="utf-8"))


def _at(doc, path: str):
    """The value at dotted ``path`` of ``doc``, or ``_ABSENT``."""
    for key in path.split("."):
        doc = doc.get(key, _ABSENT) if isinstance(doc, dict) else _ABSENT
    return doc


def _strings(doc):
    """Every string value in ``doc``, at any depth."""
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, (dict, list)):
        for value in doc.values() if isinstance(doc, dict) else doc:
            yield from _strings(value)


def _same(a, b) -> bool:
    # as JSON, so that false is not 0 and 1 is not "1"
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def check(example: dict, code: int, doc: dict) -> list:
    """What ``example`` expects and the run did not give, one line each."""
    failures = [f"unknown key {key!r}" for key in sorted(set(example) - KEYS)]
    if code != example["exit"]:
        failures.append(f"exit {code}, expected {example['exit']}")
    for path, want in example.get("values", {}).items():
        got = _at(doc, path)
        if got is _ABSENT or not _same(got, want):
            shown = "absent" if got is _ABSENT else json.dumps(got)
            failures.append(f"{path} is {shown}, expected {json.dumps(want)}")
    for text, want in example.get("counts", {}).items():
        got = sum(s.count(text) for s in _strings(doc))
        if got != want:
            failures.append(f"{text!r} occurs {got} times, expected {want}")
    return failures


def _write_config(example: dict, directory: pathlib.Path, name: str):
    """The example's config file and its result path in ``directory``."""
    config = directory / f"{name}.json"
    config.write_text(json.dumps(example["config"]), encoding="utf-8")
    return config, directory / f"{name}-result.json"


def pytest_generate_tests(metafunc):
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", NAMES)


def test_example(name, tmp_path):
    from rankgrowth import cli

    example = load(name)
    config, out = _write_config(example, tmp_path, name)
    code = cli.main(["run", str(config), *example.get("args", []), "--out", str(out)])
    assert check(example, code, json.loads(out.read_text(encoding="utf-8"))) == []


def main() -> int:
    """Run every example through the ``rankgrowth`` on PATH; 1 if any fails."""
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            example = load(name)
            config, out = _write_config(example, pathlib.Path(tmp), name)
            argv = ["rankgrowth", "run", str(config), *example.get("args", [])]
            try:
                proc = subprocess.run(
                    [*argv, "--out", str(out)],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE,
                    text=True,
                    timeout=example.get("timeout"),
                )
            except subprocess.TimeoutExpired:
                failures = [f"took over {example['timeout']} s"]
            else:
                doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
                failures = check(example, proc.returncode, doc)
                if failures and proc.stderr:
                    failures.append(proc.stderr.strip())
            failed += bool(failures)
            print("FAIL" if failures else "ok", name)
            for line in failures:
                print("   ", line)
    print(f"{len(NAMES) - failed} of {len(NAMES)} CLI examples pass")
    return 1 if failed or not NAMES else 0


if __name__ == "__main__":
    sys.exit(main())
