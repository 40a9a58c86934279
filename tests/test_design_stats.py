import importlib.util
import os
import textwrap

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "design_stats.py")
_spec = importlib.util.spec_from_file_location("design_stats", _TOOL)
design_stats = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(design_stats)

SNIPPET = textwrap.dedent('''\
    import argparse
    import dataclasses
    from dataclasses import dataclass


    @dataclass(frozen=True)
    class Point:
        x: int
        y: float = 0.0
        LIMIT = 3

        def scaled(self, a, /, b, *rest, c=1, **extra):
            step = lambda u, v=2: u + v
            def inner(p):
                return p
            return step


    @dataclasses.dataclass
    class Tag:
        name: str


    class Plain:
        w: int

        @classmethod
        def make(cls, k):
            return cls()


    def build():
        parser = argparse.ArgumentParser()
        parser.add_argument("--a")
        parser.add_argument("--b")
        return parser
''')


def test_rules_on_a_snippet():
    # parameters: scaled 5 (a, b, rest, c, extra), the lambda 2, inner 1, make 1;
    # fields: Point's x and y (LIMIT has no annotation) and Tag's name, not Plain's w
    assert design_stats.source_stats(SNIPPET) == {
        "lines": 36, "parameters": 9, "dataclass_fields": 3, "add_argument": 2}


def test_package_sums_its_modules(tmp_path, capsys):
    (tmp_path / "one.py").write_text(SNIPPET)
    (tmp_path / "two.py").write_text("def f(x):\n    return x\n")
    (tmp_path / "notes.txt").write_text("def g(y): pass\n")
    assert design_stats.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [
        "lines", "38", "parameters", "10", "dataclass_fields", "3", "add_argument", "2"]
