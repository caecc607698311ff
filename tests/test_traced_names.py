"""The benchmark's tracer (``perfbench/tracing.py``) wraps ksub functions by
name. A refactor that deletes or renames one of them must fail here, not
only in a traced benchmark run."""

import importlib
import types
from pathlib import Path

import ksub.cli  # noqa: F401  (registers every ksub module the tracer wraps)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # compiled from the source text, so no bytecode is written beside it
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


tracing = load_tracing()


def resolve(module_name, qual):
    module = importlib.import_module(module_name)
    if "." in qual:
        cls_name, attr = qual.split(".")
        return vars(getattr(module, cls_name)).get(attr)
    return getattr(module, qual, None)


def test_every_traced_function_resolves():
    missing = [f"ksub.{layer}.{qual}"
               for layer, quals in tracing.TRACED.items() for qual in quals
               if not callable(resolve(f"ksub.{layer}", qual))]
    assert missing == []


def test_every_verify_check_function_resolves():
    checks = tracing.verify_checks()
    assert checks
    missing = [func for func in checks.values()
               if not callable(resolve("ksub.verify", func))]
    assert missing == []


def test_tracer_installs_and_removes():
    from ksub import numdiff
    original = numdiff.d2
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        assert numdiff.d2 is not original
    finally:
        tracer.remove()
    assert numdiff.d2 is original


def test_each_op_writes_its_payload_through_the_traced_writer(capsys):
    # `--trace 1` reports cli.dumps_json.calls from the tracer's wrapper;
    # an op that wrote its payload some other way would read 0 there
    tracer = tracing.Tracer()
    index = tracer.names.index("cli.dumps_json")
    ops = (["info", "--bcv", "1", "0.5", "--grid", "12", "12"],
           ["check-surface", "--bcv", "0", "0.5", "--graph", "x*y",
            "--grid", "1", "1"])
    for op, argv in enumerate(ops):
        before = tracer.calls[index]
        tracer.install(op)
        try:
            assert ksub.cli.main(argv) == 0
        finally:
            tracer.remove()
        assert tracer.calls[index] - before == 1
        assert tracer.calls_from("cli.dumps_json", "ksub.cli") == op + 1
    capsys.readouterr()
